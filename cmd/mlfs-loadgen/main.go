// Command mlfs-loadgen drives a running mlfs-serve instance with a
// seeded synthetic workload and prints what the run did: the counts,
// the 429 sheds it absorbed and the drained run's result. It measures
// no latency; perfbench's serve-mixed workload does (perfbench/README.md).
//
// The default (replay) mode pauses the server, submits the whole
// generated trace with explicit arrival stamps, resumes, and waits for
// the run to drain — producing a run with a batch oracle. Open-loop
// mode (-rps) paces submissions against the wall clock instead.
//
// Examples:
//
//	mlfs-serve -scheduler mlfs -addr :8080 &
//	mlfs-loadgen -url http://localhost:8080 -jobs 1000 -seed 1
//	mlfs-loadgen -url http://localhost:8080 -jobs 500 -rps 200
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"mlfs"
	"mlfs/internal/loadgen"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "mlfs-serve base URL")
		jobs     = flag.Int("jobs", 1000, "jobs to submit")
		seed     = flag.Int64("seed", 1, "workload seed")
		duration = flag.Float64("duration", 0, "trace arrival window in simulated seconds (default: scaled to the server's cluster)")
		rps      = flag.Float64("rps", 0, "open-loop submissions per wall second (0 = replay mode: pause, submit all, resume, drain)")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall run timeout")
	)
	flag.Parse()

	dur := *duration
	if dur <= 0 {
		// Match the batch harness's pressure calibration, scaled to the
		// served cluster's GPU count (read from /v1/cluster).
		gpus, err := clusterGPUs(*url)
		if err != nil {
			fatal(err)
		}
		dur = mlfs.DurationForCluster(*jobs, gpus)
	}

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     *url,
		Jobs:        *jobs,
		Seed:        *seed,
		DurationSec: dur,
		RPS:         *rps,
		Timeout:     *timeout,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("mode %s: submitted %d, completed %d, cancelled %d\n",
		rep.Mode, rep.Submitted, rep.Completed, rep.Cancelled)
	fmt.Printf("shed %d submissions, %.0fs waiting out Retry-After\n", rep.Shed, rep.RetryWaitSeconds)
	fmt.Println(rep.Result)
}

// clusterGPUs asks the server how many GPUs it simulates.
func clusterGPUs(base string) (int, error) {
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	var cv struct {
		GPUs int `json:"gpus"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		return 0, err
	}
	if cv.GPUs <= 0 {
		return 0, fmt.Errorf("server reports no GPUs")
	}
	return cv.GPUs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlfs-loadgen:", err)
	os.Exit(1)
}
