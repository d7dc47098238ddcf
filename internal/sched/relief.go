package sched

import (
	"slices"

	"mlfs/internal/job"
)

// UnderloadedSet is Cluster.Underloaded kept current across one
// overload-relief round. A migration changes the load of its source and
// destination servers and of no other, so after each successful Migrate
// only those two are re-tested; a failed Migrate rolls back through
// Remove+Place, which can leave the source's load bits different from
// before, so the whole set is rescanned. Either way IDs equals what a
// fresh Cluster.Underloaded would return, in the same ascending order.
type UnderloadedSet struct {
	ids []int
}

// Reset rescans the cluster. Call it at the start of every relief round.
func (u *UnderloadedSet) Reset(ctx *Context) {
	if n := ctx.Cluster.NumServers(); cap(u.ids) < n {
		// Sized for every server, so re-tests never grow the slice.
		u.ids = make([]int, 0, n)
	}
	u.ids = ctx.Cluster.AppendUnderloaded(u.ids[:0], ctx.HR)
}

// IDs returns the underloaded servers in ascending order. The slice is
// shared scratch: callers must not mutate it, and it is valid until the
// next Reset or Migrate.
func (u *UnderloadedSet) IDs() []int { return u.ids }

// Migrate is Context.Migrate that keeps the set current.
func (u *UnderloadedSet) Migrate(ctx *Context, t *job.Task, server, device int) error {
	// Read the source first: Migrate reuses the placement record.
	src := -1
	if p := ctx.Cluster.Lookup(t.ID.Ref()); p != nil {
		src = p.Server
	}
	if err := ctx.Migrate(t, server, device); err != nil {
		u.Reset(ctx)
		return err
	}
	u.retest(ctx, src)
	u.retest(ctx, server)
	return nil
}

// retest moves server si into or out of the set by its current load.
func (u *UnderloadedSet) retest(ctx *Context, si int) {
	s := ctx.Cluster.Server(si)
	i, in := slices.BinarySearch(u.ids, si)
	switch under := s.Up() && !s.Overloaded(ctx.HR); {
	case under && !in:
		u.ids = slices.Insert(u.ids, i, si)
	case !under && in:
		u.ids = slices.Delete(u.ids, i, i+1)
	}
}
