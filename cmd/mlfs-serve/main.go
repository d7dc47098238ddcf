// Command mlfs-serve runs the scheduling simulator as a long-lived
// HTTP/JSON service: jobs are submitted, inspected and cancelled over
// the API while a single event loop advances the cluster in scaled
// time (-timescale) or as fast as it can. Accepted submissions and
// cancellations are journaled and the full service state is
// snapshotted on a tick cadence, so a restarted server resumes the
// run bit-identically. Admission bounds (-max-queued, -max-lookahead)
// shed overload with 429 + Retry-After, and a second instance started
// with -follow tails the primary's journal stream as a read-only hot
// standby, promotable on primary loss.
//
// Examples:
//
//	mlfs-serve -scheduler mlfs -addr :8080
//	mlfs-serve -scheduler mlfs -timescale 60 -journal run.jsonl \
//	    -snapshot-every 500 -snapshot run.snap
//	mlfs-serve -addr :8081 -journal standby.jsonl \
//	    -follow http://localhost:8080 -promote-on-loss 10s
//	curl -s localhost:8080/v1/jobs -d '{"gpus": 4}'
//
// See OPERATIONS.md for the full API and metrics reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/serve"
	"mlfs/internal/sim"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		scheduler = flag.String("scheduler", "mlfs", "scheduling policy (see mlfs-sim -list)")
		preset    = flag.String("preset", "paper-real", "cluster preset: paper-real | paper-sim")
		servers   = flag.Int("servers", 0, "override: number of servers")
		gpus      = flag.Int("gpus", 0, "override: GPUs per server")
		seed      = flag.Int64("seed", 1, "policy seed")
		timescale = flag.Float64("timescale", 0, "simulated seconds per wall second (0 = as fast as possible)")
		tick      = flag.Float64("tick", 0, "scheduling period in simulated seconds (default 60)")
		wobble    = flag.Float64("wobble", 0, "task demand variation amplitude (0 = default 0.35, negative disables)")
		paused    = flag.Bool("paused", false, "start with the clock paused (resume via POST /v1/resume)")

		mttf     = flag.Float64("mttf", 0, "mean time to server failure in seconds (0 disables fault injection)")
		mttr     = flag.Float64("mttr", 600, "mean time to server repair in seconds")
		failSeed = flag.Int64("failure-seed", 0, "failure-trace seed (default: -seed)")

		snapEvery = flag.Int("snapshot-every", 0, "write a service snapshot every N ticks (0 disables; requires -snapshot and -journal)")
		snapPath  = flag.String("snapshot", "", "snapshot file path (reloaded on start when present)")
		jourPath  = flag.String("journal", "", "journal path for accepted submissions and cancellations (replayed on start when present)")
		fsync     = flag.Bool("journal-fsync", true, "fsync the journal after every append (acknowledged records survive power loss)")

		maxQueued    = flag.Int("max-queued", 0, "admission bound: submissions awaiting simulator admission before shedding with 429 (0 = unlimited)")
		maxLookahead = flag.Float64("max-lookahead", 0, "admission bound: sim-seconds a submission's arrival may lie ahead of the clock (0 = unlimited)")

		readHeaderTO = flag.Duration("read-header-timeout", 0, "HTTP read-header timeout (0 = 10s default, negative disables)")
		readTO       = flag.Duration("read-timeout", 0, "HTTP read timeout (0 = 30s default, negative disables)")
		writeTO      = flag.Duration("write-timeout", 0, "HTTP write timeout (0 = 60s default, negative disables)")
		idleTO       = flag.Duration("idle-timeout", 0, "HTTP idle-connection timeout (0 = 120s default, negative disables)")

		follow        = flag.String("follow", "", "run as a hot-standby follower of this primary base URL (e.g. http://primary:8080)")
		promoteOnLoss = flag.Duration("promote-on-loss", 0, "self-promote after the primary has been unreachable this long (0 = explicit POST /v1/promote only)")
	)
	flag.Parse()

	cfg := serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			return mlfs.NewScheduler(*scheduler, mlfs.SchedulerOptions{Seed: *seed})
		},
		SchedulerName:  *scheduler,
		Cluster:        clusterConfig(*preset, *servers, *gpus),
		TickSec:        *tick,
		DemandWobble:   *wobble,
		Timescale:      *timescale,
		SnapshotEvery:  *snapEvery,
		SnapshotPath:   *snapPath,
		JournalPath:    *jourPath,
		NoJournalFsync: !*fsync,
		StartPaused:    *paused,

		MaxQueuedJobs:   *maxQueued,
		MaxLookaheadSec: *maxLookahead,

		ReadHeaderTimeout: *readHeaderTO,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,

		FollowURL:     *follow,
		PromoteOnLoss: *promoteOnLoss,
	}
	if *mttf > 0 {
		fs := *failSeed
		if fs == 0 {
			fs = *seed
		}
		cfg.Failures = sim.FailureConfig{MTTFSec: *mttf, MTTRSec: *mttr, Seed: fs}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	info := srv.Info()
	if info.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, "mlfs-serve: cut a torn %d-byte final line (never acknowledged) from %s\n",
			info.TornBytes, *jourPath)
	}
	if info.Resumed {
		fmt.Fprintf(os.Stderr, "mlfs-serve: resumed from %s: %d journaled submissions, %d already finalised\n",
			*snapPath, info.JournalRecords, info.CompletedRestored)
	} else if info.JournalRecords > 0 {
		fmt.Fprintf(os.Stderr, "mlfs-serve: replaying %d journaled submissions from %s\n",
			info.JournalRecords, *jourPath)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv.Start()

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting requests,
	// write the final snapshot, then exit. A second signal kills.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	if *follow != "" {
		fmt.Fprintf(os.Stderr, "mlfs-serve: following %s (read-only; POST /v1/promote to take over)\n", *follow)
	}
	fmt.Fprintf(os.Stderr, "mlfs-serve: %s scheduler on %s (timescale %g)\n",
		*scheduler, ln.Addr(), *timescale)

	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mlfs-serve: %v: draining and snapshotting (send again to kill)\n", sig)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "mlfs-serve: killed")
			srv.Kill()
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Stop(ctx); err != nil {
			fatal(err)
		}
	}
}

func clusterConfig(preset string, servers, gpus int) cluster.Config {
	if servers > 0 && gpus > 0 {
		return cluster.Config{
			Servers: servers, GPUsPerServer: gpus,
			GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
		}
	}
	if preset == "paper-sim" {
		return cluster.PaperSimConfig()
	}
	return cluster.PaperRealConfig()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlfs-serve:", err)
	os.Exit(1)
}
