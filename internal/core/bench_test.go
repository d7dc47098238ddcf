package core

import (
	"math/rand"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/sched"
)

// BenchmarkMLFHRelieve times MLF-H relief rounds on the paper's
// 550-server simulation cluster in two states. Every tenth server
// carries CPU-heavy tasks that push it over h_r; each GPU of the others
// holds a worker with probability 0.9 in "overloaded", so no server is
// idle and the ideal never reaches zero, and with probability 0.1 in
// "philly", so most servers are idle, as at the Philly trace's
// submission density, and ChooseServer's passes stop early. Every job
// has one placed task, so no candidate has a communication volume.
// Each iteration runs one relief round, then (untimed) migrates every
// moved task back, so every round faces the same overload. It reports
// ns per migration alongside the per-round time and allocations (zero
// in steady state).
func BenchmarkMLFHRelieve(b *testing.B) {
	for _, c := range []struct {
		name string
		free float64 // the chance that a GPU of a normal server is free
	}{
		{"overloaded", 0.1},
		{"philly", 0.9},
	} {
		b.Run(c.name, func(b *testing.B) { benchRelieve(b, c.free) })
	}
}

func benchRelieve(b *testing.B, free float64) {
	rng := rand.New(rand.NewSource(1))
	cl := cluster.New(cluster.PaperSimConfig())
	var next job.TaskID
	var jobs []*job.Job
	type home struct {
		t              *job.Task
		server, device int
	}
	var homes []home
	for si := 0; si < cl.NumServers(); si++ {
		devs := cl.Server(si).NumDevices()
		for d := 0; d < devs; d++ {
			if rng.Float64() < free && si%10 != 0 {
				continue // a free GPU: a migration destination
			}
			cpu := 2.0
			if si%10 == 0 {
				cpu = 9 // four or five of these overload the server's 32 CPUs
			}
			comm := job.AllReduce
			if rng.Intn(2) == 0 {
				comm = job.ParameterServer
			}
			j, err := job.Build(job.Spec{ID: job.ID(len(jobs) + 1), Family: learncurve.MLP, Comm: comm,
				ModelParallel: 1, Urgency: 1 + rng.Intn(10), MaxIterations: 100, IterSec: 10,
				TotalParams: 100, Deadline: 24 * 3600, CPUPerTask: cpu, CommVolWW: 50,
				Curve: learncurve.Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.02}}, &next)
			if err != nil {
				b.Fatal(err)
			}
			j.SimSlot = len(jobs)
			for _, t := range j.Tasks {
				if t.GPUShare == 0 {
					continue // a parameter-server task holds no GPU: it stays unplaced
				}
				if err := cl.Place(t.ID.Ref(), si, d, t.Demand, t.GPUShare); err != nil {
					b.Fatal(err)
				}
				j.PlacedTasks++
				homes = append(homes, home{t, si, d})
			}
			jobs = append(jobs, j)
		}
	}
	ctx := sched.NewContext(0, cl, jobs, nil, 0.9, 0.9)
	m := NewMLFH()
	prios := m.Priorities(ctx)
	restore := func() {
		for _, h := range homes {
			if p := cl.Lookup(h.t.ID.Ref()); p.Server != h.server || p.Device != h.device {
				if err := ctx.Migrate(h.t, h.server, h.device); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	m.RelieveOverloads(ctx, prios, m.ChooseServer) // sizes the scratch buffers
	restore()
	b.ReportAllocs()
	b.ResetTimer()
	migrations := 0
	for i := 0; i < b.N; i++ {
		before := ctx.Migrations
		m.RelieveOverloads(ctx, prios, m.ChooseServer)
		migrations += ctx.Migrations - before
		b.StopTimer()
		restore()
		b.StartTimer()
	}
	if migrations == 0 {
		b.Fatal("no migrations: the cluster is not overloaded")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(migrations), "ns/migration")
}
