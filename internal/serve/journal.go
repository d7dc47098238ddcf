package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"mlfs/internal/trace"
)

// The journal is the service's ground truth for the workload: one
// JSON-encoded envelope per line, appended when a mutation is
// acknowledged and flushed before the acknowledging call returns. Two
// record kinds exist:
//
//   - {"submit": {...trace.Record...}} — an accepted submission, with
//     its resolved ArrivalSec and server-assigned JobID.
//   - {"cancel": {"job": N, "at": T}} — an acknowledged cancellation of
//     job N, stamped with the simulation time T at which it was
//     accepted.
//
// Snapshots only ever cover a prefix of the journal, so crash recovery
// restores the snapshot and re-applies the journal tail — and with no
// (readable) snapshot at all, replaying the whole journal from an
// empty simulator reproduces the run, cancellations included: a
// journaled cancel is re-applied once the replay clock reaches its
// stamp, through the same code path a live DELETE takes.
//
// Durability: by default every append is fsync'd (bufio flush + OS
// write + f.Sync) before the acknowledging response, so an
// acknowledged mutation survives power loss, not just a process crash.
// Config.NoJournalFsync drops the Sync — acknowledged records then
// live in the OS page cache until the kernel writes them back, which
// survives a process kill but not a host failure.
//
// encoding/json round-trips float64 exactly (shortest-representation
// formatting), so a replayed record is bit-identical to the submitted
// one — the journal preserves run identity, not an approximation.

// journalMaxLine bounds one journal line on read. It is deliberately
// far above the submit-body cap (maxSubmitBytes): any record the API
// accepted live must also replay, so an oversized-but-legal line may
// never be accepted by the writer and then rejected by the reader.
const journalMaxLine = 8 << 20

// CancelRecord is one journaled cancellation: the cancel of job JobID
// was acknowledged at simulation time AtSec. Replays apply it at the
// same point — immediately if the job is live when the clock reaches
// AtSec, or the moment the simulator admits the job if the cancel
// preceded admission (the 202 path).
type CancelRecord struct {
	JobID int64   `json:"job"`
	AtSec float64 `json:"at"`
}

// journalLine is the on-disk envelope: exactly one of the fields is
// set per line.
type journalLine struct {
	Submit *trace.Record `json:"submit,omitempty"`
	Cancel *CancelRecord `json:"cancel,omitempty"`
}

// journal appends acknowledged mutations to a JSONL file.
type journal struct {
	f    *os.File
	w    *bufio.Writer
	sync bool // fsync after every append (the default durability level)
}

// openJournal opens path for appending, creating it if absent. An
// empty path disables journaling (nil journal; all methods no-op).
// sync enables per-append fsync.
func openJournal(path string, sync bool) (*journal, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, w: bufio.NewWriter(f), sync: sync}, nil
}

// appendRaw writes one pre-marshaled envelope line (no trailing
// newline) and makes it durable before returning. The replication
// apply path uses it so a follower's journal is byte-identical to the
// primary's.
func (j *journal) appendRaw(line []byte) error {
	if j == nil {
		return nil
	}
	if _, err := j.w.Write(line); err != nil {
		return err
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

// marshalLine produces the canonical one-line encoding of an envelope
// — the exact bytes appendSubmit/appendCancel write and the
// replication stream carries.
func marshalLine(line journalLine) ([]byte, error) {
	return json.Marshal(line)
}

// appendSubmit journals one accepted submission and returns the
// canonical line written (for the replication log).
func (j *journal) appendSubmit(r trace.Record) ([]byte, error) {
	b, err := marshalLine(journalLine{Submit: &r})
	if err != nil {
		return nil, err
	}
	return b, j.appendRaw(b)
}

// appendCancel journals one acknowledged cancellation and returns the
// canonical line written.
func (j *journal) appendCancel(c CancelRecord) ([]byte, error) {
	b, err := marshalLine(journalLine{Cancel: &c})
	if err != nil {
		return nil, err
	}
	return b, j.appendRaw(b)
}

// Close flushes and closes the file.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// readJournalEnvelopes loads every envelope from path in append order
// — the representation replication needs, since submissions and
// cancellations interleave. A missing file is an empty journal.
//
// An unterminated final line is an append that failed part-way (short
// write, full disk): appendRaw acknowledges a record only after its
// newline is flushed, so such a line was never acknowledged. It is
// skipped, and its length is returned as torn so recovery can cut it
// off before appending behind it. Any other malformed line — a
// newline-terminated one may have been acknowledged — fails the load:
// the journal is the run's ground truth, so silently dropping records
// would silently change the workload.
func readJournalEnvelopes(path string) (envs []journalLine, torn int64, err error) {
	if path == "" {
		return nil, 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), journalMaxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			torn = int64(len(data))
			return len(data), nil, nil
		}
		return 0, nil, nil
	})
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l journalLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, 0, fmt.Errorf("serve: journal %s line %d: %w", path, line, err)
		}
		if (l.Submit == nil) == (l.Cancel == nil) {
			return nil, 0, fmt.Errorf("serve: journal %s line %d: want exactly one of submit or cancel", path, line)
		}
		envs = append(envs, l)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	return envs, torn, nil
}

// truncateTornTail cuts the last torn bytes off the journal at path
// and makes the cut durable, so the next append starts a fresh line
// instead of completing a record that was never acknowledged.
func truncateTornTail(path string, torn int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil {
		err = f.Truncate(fi.Size() - torn)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: journal %s: cutting torn tail: %w", path, err)
	}
	return nil
}

// splitEnvelopes separates an ordered envelope stream into its
// submission and cancellation halves, each in append order.
func splitEnvelopes(envs []journalLine) (records []trace.Record, cancels []CancelRecord) {
	for _, l := range envs {
		switch {
		case l.Submit != nil:
			records = append(records, *l.Submit)
		case l.Cancel != nil:
			cancels = append(cancels, *l.Cancel)
		}
	}
	return records, cancels
}

// readJournal loads every record from path, split by kind, each slice
// in append order. A torn final line is skipped, and the file is left
// as it is.
func readJournal(path string) (records []trace.Record, cancels []CancelRecord, err error) {
	envs, _, err := readJournalEnvelopes(path)
	if err != nil {
		return nil, nil, err
	}
	records, cancels = splitEnvelopes(envs)
	return records, cancels, nil
}
