package chaostest

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mlfs/internal/baselines"
	"mlfs/internal/cluster"
	"mlfs/internal/core"
	"mlfs/internal/core/mlfc"
	"mlfs/internal/core/mlfrl"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/nn"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
)

// snapverPinned maps each snapshot.FormatVersion to the schema hash of
// the struct set that version serializes. TestSnapshotVersionGuard
// recomputes the hash from the live types; any drift means a
// snapshotted struct changed shape without a FormatVersion bump.
//
// When the guard fails legitimately (you changed serialized state on
// purpose): bump snapshot.FormatVersion, update every encoder/decoder,
// and pin the new hash the failure message prints under the new
// version key. Never update the hash under an existing key.
var snapverPinned = map[uint32]uint64{
	1: 0xd0e271c2a8167fb6,
	2: 0x8fa799272be060c7,
	3: 0x7ea661c0a9ac5c17,
	4: 0x1bd550df07e3c293,
	5: 0xe50587d483ec5007,
	6: 0x988a2391233ce0e2,
}

// snapverRoots are the structs whose fields feed snapshot payloads,
// directly or through nested state. The schema walk recurses through
// every field whose type lives in this module, so nested structs
// (cluster.Server, nn.Adam, learncurve.Predictor, ...) are covered
// without being listed.
var snapverRoots = []any{
	sim.Simulator{},
	job.Job{},
	job.Task{},
	metrics.Counters{},
	metrics.Result{},
	cluster.Cluster{},
	cluster.FaultProcess{},
	core.MLFH{},
	mlfc.Controller{},
	mlfrl.Scheduler{},
	baselines.RLSched{},
	nn.Policy{},
	snapshot.Source{},
}

// TestSnapshotVersionGuard fails when any snapshotted struct gains,
// loses, renames or retypes a field while snapshot.FormatVersion stays
// the same. Old snapshot files would then decode into a different
// shape — silently, since the version check in Decode would pass.
func TestSnapshotVersionGuard(t *testing.T) {
	got := snapverHash(snapverRoots)
	want, ok := snapverPinned[snapshot.FormatVersion]
	if !ok {
		t.Fatalf("no pinned schema hash for FormatVersion %d; pin %#x in snapverPinned",
			snapshot.FormatVersion, got)
	}
	if got != want {
		t.Fatalf("snapshotted struct schema changed: hash %#x, pinned %#x for FormatVersion %d.\n"+
			"A struct that feeds snapshot payloads gained/lost/renamed/retyped a field.\n"+
			"Bump snapshot.FormatVersion, update the encoders/decoders, and pin the new hash.",
			got, want, snapshot.FormatVersion)
	}
}

// snapverHash builds a canonical textual schema for the root set and
// returns its FNV-64a hash. Types outside this module (stdlib, etc.)
// contribute only their name, so stdlib-internal churn cannot trip the
// guard; module types contribute every field name and type string,
// recursively.
func snapverHash(roots []any) uint64 {
	schemas := map[string]string{}
	for _, r := range roots {
		describeType(reflect.TypeOf(r), schemas)
	}
	names := make([]string, 0, len(schemas))
	for name := range schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s\n", schemas[name])
	}
	return h.Sum64()
}

// describeType records t's schema line into schemas and recurses into
// any module-local types it references.
func describeType(t reflect.Type, schemas map[string]string) {
	// Unwrap containers down to the element type first.
	for {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			t = t.Elem()
			continue
		case reflect.Map:
			describeType(t.Key(), schemas)
			t = t.Elem()
			continue
		}
		break
	}
	if t.Kind() != reflect.Struct || !strings.HasPrefix(t.PkgPath(), "mlfs") {
		return // foreign or non-struct: named by t.String() at the use site
	}
	if _, done := schemas[t.String()]; done {
		return
	}
	schemas[t.String()] = "" // reserve before recursing: breaks cycles
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", t.String())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fmt.Fprintf(&b, "%s %s;", f.Name, f.Type.String())
		describeType(f.Type, schemas)
	}
	b.WriteString("}")
	schemas[t.String()] = b.String()
}
