package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"sdt/internal/cluster"
	"sdt/internal/faultinject"
	"sdt/internal/sweep"
)

// siteJournal is the fault-injection site armed around sweep-journal
// persistence (the marshalled write and its committing rename).
const siteJournal = "service.sweep.journal"

// errJournalMismatch marks a resume whose journal was written by a sweep
// with a different matrix/seed/limit — replaying it would serve cells
// from the wrong experiment.
var errJournalMismatch = errors.New("service: sweep id was journaled for a different request")

// journalCell records one completed cell: its matrix index and the
// content-store key its result bytes live under.
type journalCell struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
}

// journalFile is the on-disk shape of a sweep checkpoint.
type journalFile struct {
	ID     string        `json:"id"`
	Matrix string        `json:"matrix"`
	Cells  []journalCell `json:"cells"`
}

// sweepJournal checkpoints completed cells for one sweep ID. Every
// completed cell rewrites the whole journal through a temp file and an
// atomic rename (matrices are bounded by MaxSweepCells, so the rewrite
// is small), meaning a killed connection or daemon loses at most the
// record of cells finishing right then — never a torn journal. Journal
// persistence is best-effort: a failed write degrades resume coverage,
// not the sweep itself.
type sweepJournal struct {
	path   string
	state  journalFile
	have   map[int]string // index -> store key, for resume replay
	faults *faultinject.Injector
	onErr  func(error) // receives persistence failures (metrics + log)

	// shipper, when set, receives the marshalled journal after each
	// successful local write. The cluster coordinator sets it to
	// replicate the journal to ring successors, making the checkpoint
	// adoptable by a survivor if this coordinator dies (docs/CLUSTER.md).
	shipper *cluster.JournalShipper
}

// sweepDigest canonically hashes the request fields that define cell
// identity, binding a journal to its matrix: same workloads, archs,
// mechs, scales, seed and limit — per-cell timeouts may differ between
// the original run and the resume.
func sweepDigest(m sweep.Matrix, seed, limit uint64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(m)
	fmt.Fprintf(h, "|%d|%d|cells", seed, limit)
	return hex.EncodeToString(h.Sum(nil))
}

// validSweepID accepts client-chosen sweep IDs that are safe as file
// names: 1-64 chars of [A-Za-z0-9._-], starting with an alphanumeric.
func validSweepID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// openSweepJournal loads (or initializes) the checkpoint for id at
// path. An existing journal for a different matrix digest is refused with
// errJournalMismatch; an unreadable or torn journal is discarded and
// restarted fresh — checkpointing must never make a sweep less available
// than having no checkpoint at all.
func openSweepJournal(path, id, digest string, faults *faultinject.Injector, onErr func(error)) (*sweepJournal, error) {
	j := &sweepJournal{
		path:   path,
		state:  journalFile{ID: id, Matrix: digest},
		have:   make(map[int]string),
		faults: faults,
		onErr:  onErr,
	}
	data, err := os.ReadFile(j.path)
	if errors.Is(err, fs.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		onErr(fmt.Errorf("reading sweep journal %s: %w", id, err))
		return j, nil
	}
	var prev journalFile
	if err := json.Unmarshal(data, &prev); err != nil {
		onErr(fmt.Errorf("decoding sweep journal %s: %w", id, err))
		return j, nil
	}
	if prev.Matrix != digest {
		return nil, errJournalMismatch
	}
	j.state.Cells = prev.Cells
	for _, c := range prev.Cells {
		j.have[c.Index] = c.Key
	}
	return j, nil
}

// record checkpoints one completed cell and persists the journal.
func (j *sweepJournal) record(index int, key string) {
	if _, dup := j.have[index]; dup {
		return
	}
	j.have[index] = key
	j.state.Cells = append(j.state.Cells, journalCell{Index: index, Key: key})
	j.persist()
}

// persist writes the journal atomically, reporting failures —
// including injected ones — through onErr.
func (j *sweepJournal) persist() {
	if j.faults != nil {
		if err := j.faults.Fail(siteJournal); err != nil {
			j.onErr(fmt.Errorf("writing sweep journal %s: %w", j.state.ID, err))
			return
		}
	}
	data, err := json.Marshal(j.state)
	if err == nil {
		err = writeFileAtomic(j.path, data)
	}
	if err != nil {
		j.onErr(fmt.Errorf("writing sweep journal %s: %w", j.state.ID, err))
		return
	}
	if j.shipper != nil {
		j.shipper.Push(data)
	}
}

// remove deletes the journal once the sweep has fully completed.
func (j *sweepJournal) remove() {
	if err := os.Remove(j.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		j.onErr(fmt.Errorf("removing sweep journal %s: %w", j.state.ID, err))
	}
}

// isJournalFor reports whether data is a journal file for sweep id:
// what a replicated or adopted copy must be before it is stored.
func isJournalFor(data []byte, id string) bool {
	var jf journalFile
	return json.Unmarshal(data, &jf) == nil && jf.ID == id
}

// writeFileAtomic writes data through a temp file and a rename, so a
// crash leaves the old file or the new one, never a torn one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}
