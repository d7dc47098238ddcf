package metrics

import "mlfs/internal/snapshot"

// EncodeState serialises every counter. The field list lives here, next
// to the struct: the snapstate lint flags a Counters field the codec
// misses, and the version guard then demands a format-version bump for
// extending it.
func (c *Counters) EncodeState(w *snapshot.Writer) {
	w.Float64(c.BandwidthMB)
	w.Float64(c.MigrationMB)
	w.Int(c.Placements)
	w.Int(c.Migrations)
	w.Int(c.Evictions)
	w.Int(c.OverloadOccurrences)
	w.Int(c.SchedRounds)
	w.Float64(c.SchedSeconds)
	w.Float64(c.SimulatedSec)
	w.Int(c.Truncated)
	w.Int(c.Rejected)
	w.Int(c.DirtyJobs)
	w.Int(c.SkippedRounds)
	w.Int(c.ServerFailures)
	w.Int(c.ServerRepairs)
	w.Int(c.FailureEvictions)
	w.Float64(c.WorkLostIters)
	w.Int(c.JobRestarts)
	w.Int(c.JobsKilled)
}

// DecodeState restores every counter.
func (c *Counters) DecodeState(r *snapshot.Reader) error {
	c.BandwidthMB = r.Float64()
	c.MigrationMB = r.Float64()
	c.Placements = r.Int()
	c.Migrations = r.Int()
	c.Evictions = r.Int()
	c.OverloadOccurrences = r.Int()
	c.SchedRounds = r.Int()
	c.SchedSeconds = r.Float64()
	c.SimulatedSec = r.Float64()
	c.Truncated = r.Int()
	c.Rejected = r.Int()
	c.DirtyJobs = r.Int()
	c.SkippedRounds = r.Int()
	c.ServerFailures = r.Int()
	c.ServerRepairs = r.Int()
	c.FailureEvictions = r.Int()
	c.WorkLostIters = r.Float64()
	c.JobRestarts = r.Int()
	c.JobsKilled = r.Int()
	return r.Err()
}
