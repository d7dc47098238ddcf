package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"mlfs/internal/job"
	"mlfs/internal/learncurve"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Jobs: 200, Seed: 42})
	b := Generate(GenConfig{Jobs: 200, Seed: 42})
	if len(a.Records) != 200 || len(b.Records) != 200 {
		t.Fatalf("lengths %d, %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs under same seed", i)
		}
	}
	c := Generate(GenConfig{Jobs: 200, Seed: 43})
	same := true
	for i := range a.Records {
		if a.Records[i] != c.Records[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateArrivalsSortedWithinDuration(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 500, Seed: 1, DurationSec: 3600})
	if !sort.SliceIsSorted(tr.Records, func(i, j int) bool {
		return tr.Records[i].ArrivalSec < tr.Records[j].ArrivalSec
	}) {
		t.Fatal("arrivals not sorted")
	}
	for _, r := range tr.Records {
		if r.ArrivalSec < 0 || r.ArrivalSec > 3600 {
			t.Fatalf("arrival %v outside duration", r.ArrivalSec)
		}
	}
}

func TestGenerateFieldRanges(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 1000, Seed: 7})
	validGPUs := map[int]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true}
	for _, r := range tr.Records {
		if !validGPUs[r.GPUs] {
			t.Fatalf("GPUs = %d not in {1,2,4,8,16,32}", r.GPUs)
		}
		if r.Urgency < 1 || r.Urgency > 10 {
			t.Fatalf("urgency %d", r.Urgency)
		}
		if r.TargetFrac < 0.70 || r.TargetFrac > 0.92 {
			t.Fatalf("target frac %v", r.TargetFrac)
		}
		if r.TrainDataMB < 100 || r.TrainDataMB > 1000 {
			t.Fatalf("train data %v outside [100,1000] MB (§4.1)", r.TrainDataMB)
		}
		if r.CommVolPS < 50 || r.CommVolPS > 100 || r.CommVolWW < 50 || r.CommVolWW > 100 {
			t.Fatalf("comm volume outside [50,100] MB (§4.1)")
		}
		if h := r.DeadlineSlackSec / 3600; h < 0.5 || h > 24 {
			t.Fatalf("deadline slack %v h outside [0.5,24] (§4.1)", h)
		}
	}
}

func TestGenerateDistributionsRoughlyCalibrated(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 20000, Seed: 3})
	gpuCount := map[int]int{}
	famCount := map[learncurve.Family]int{}
	for _, r := range tr.Records {
		gpuCount[r.GPUs]++
		famCount[r.Family]++
	}
	n := float64(len(tr.Records))
	if f := float64(gpuCount[1]) / n; math.Abs(f-0.5) > 0.03 {
		t.Fatalf("1-GPU fraction %v, want ~0.5", f)
	}
	if f := float64(gpuCount[32]) / n; math.Abs(f-0.03) > 0.01 {
		t.Fatalf("32-GPU fraction %v, want ~0.03", f)
	}
	if f := float64(famCount[learncurve.ResNet]) / n; math.Abs(f-0.3) > 0.03 {
		t.Fatalf("resnet fraction %v, want ~0.3", f)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 100, Seed: 9})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if tr.Records[i] != back.Records[i] {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, tr.Records[i], back.Records[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Fatal("bad header must fail")
	}
	good := Generate(GenConfig{Jobs: 1, Seed: 1})
	var buf bytes.Buffer
	if err := good.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the family field.
	s := strings.Replace(buf.String(), good.Records[0].Family.String(), "nonsense", 1)
	if _, err := ReadCSV(strings.NewReader(s)); err == nil {
		t.Fatal("unknown family must fail")
	}
}

// materializeAll converts every record of tr, preserving order, with
// cluster-unique task ids.
func materializeAll(t *testing.T, tr *Trace) []*job.Job {
	t.Helper()
	var next job.TaskID
	jobs := make([]*job.Job, 0, len(tr.Records))
	for _, r := range tr.Records {
		j, err := Materialize(r, &next)
		if err != nil {
			t.Fatalf("job %d: %v", r.JobID, err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func TestMaterialize(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 50, Seed: 11})
	jobs := materializeAll(t, tr)
	if len(jobs) != 50 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	seen := map[job.TaskID]bool{}
	for i, j := range jobs {
		r := tr.Records[i]
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", j.ID, err)
		}
		if j.GPUsRequested() != r.GPUs {
			t.Fatalf("job %d GPUs = %d, want %d", j.ID, j.GPUsRequested(), r.GPUs)
		}
		if j.Arrival != r.ArrivalSec {
			t.Fatal("arrival mismatch")
		}
		// Paper: deadline = arrival + max{1.1 t_e, t_r}.
		wantDeadline := r.ArrivalSec + math.Max(1.1*j.EstimatedRuntime, r.DeadlineSlackSec)
		if math.Abs(j.Deadline-wantDeadline) > 1e-6 {
			t.Fatalf("deadline = %v, want %v", j.Deadline, wantDeadline)
		}
		if j.AccuracyTarget <= 0 || j.AccuracyTarget >= j.Curve.AccMax {
			t.Fatalf("accuracy target %v vs AccMax %v", j.AccuracyTarget, j.Curve.AccMax)
		}
		for _, task := range j.Tasks {
			if seen[task.ID] {
				t.Fatalf("task id %d reused across jobs", task.ID)
			}
			seen[task.ID] = true
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 20, Seed: 5})
	a, b := materializeAll(t, tr), materializeAll(t, tr)
	for i := range a {
		if a[i].MaxIterations != b[i].MaxIterations ||
			a[i].Deadline != b[i].Deadline ||
			a[i].NumTasks() != b[i].NumTasks() ||
			a[i].Curve.AccMax != b[i].Curve.AccMax ||
			a[i].Curve.Rate != b[i].Curve.Rate ||
			a[i].Curve.L0 != b[i].Curve.L0 {
			t.Fatalf("job %d not deterministic", i)
		}
	}
}

func TestSVMIsDataParallelOnly(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 2000, Seed: 13})
	jobs := materializeAll(t, tr)
	var found bool
	for _, j := range jobs {
		if j.Family == learncurve.SVM {
			found = true
			if j.ModelParallel != 1 {
				t.Fatalf("SVM job %d has model parallelism %d", j.ID, j.ModelParallel)
			}
			if j.DataParallel != j.GPUsRequested() {
				t.Fatal("SVM parallelism mismatch")
			}
		}
	}
	if !found {
		t.Fatal("no SVM jobs in 2000-job trace")
	}
}

// Malformed CSV rows must produce errors, never panics.
// TestReadCSVRejectsHostileValues: a negative or non-finite size,
// volume, arrival, target or slack fails the read with an error naming
// the row, instead of materialising a job that never finishes.
func TestReadCSVRejectsHostileValues(t *testing.T) {
	good := Generate(GenConfig{Jobs: 1, Seed: 1})
	var buf bytes.Buffer
	if err := good.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, col := range []int{1, 2, 5, 6, 7, 8, 9, 10} {
		for _, bad := range []string{"-1", "NaN", "+Inf"} {
			if (col == 2 || col == 5) && bad != "-1" {
				continue // gpus and urgency are ints: only a negative parses
			}
			row := strings.Split(lines[1], ",")
			row[col] = bad
			_, err := ReadCSV(strings.NewReader(lines[0] + "\n" + strings.Join(row, ",") + "\n"))
			if err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), csvHeader[col]) {
				t.Errorf("%s = %s: err = %v, want an error naming row 2 and the column", csvHeader[col], bad, err)
			}
		}
	}
}

func TestParseRowNeverPanics(t *testing.T) {
	good := Generate(GenConfig{Jobs: 1, Seed: 1})
	var buf bytes.Buffer
	if err := good.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	row := strings.Split(lines[1], ",")
	garbage := []string{"", "x", "-1", "1e999", "NaN", "true", "nonsense", "🤖"}
	for col := range row {
		for _, g := range garbage {
			mut := append([]string(nil), row...)
			mut[col] = g
			rec, err := parseRow(mut)
			if err == nil {
				// Some garbage is a valid value for some columns (e.g. -1
				// as an int); materialisation must still not panic.
				var next job.TaskID
				_, _ = Materialize(rec, &next)
			}
		}
	}
	// Wrong column count.
	if _, err := parseRow(row[:5]); err == nil {
		t.Fatal("short row must error")
	}
}
