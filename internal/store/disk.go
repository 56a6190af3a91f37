package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// Fault-injection site names for the disk layer (armed by a
// faultinject.Plan; see docs/ROBUSTNESS.md).
const (
	// SiteDiskRead fires around entry reads. An io-class point fails the
	// read; a corrupt-class point flips a bit in the raw entry bytes
	// before verification, exercising the quarantine path.
	SiteDiskRead = "store.disk.read"
	// SiteDiskWrite fires before the temp-file write of a Put.
	SiteDiskWrite = "store.disk.write"
	// SiteDiskRename fires before the atomic rename that commits a Put.
	SiteDiskRename = "store.disk.rename"
)

// Faults is the store's seam for deterministic fault injection
// (*faultinject.Injector satisfies it). A nil Faults disables injection;
// the disk layer guards every use behind a single nil check.
type Faults interface {
	// Fail returns the error to inject at site, or nil.
	Fail(site string) error
	// Corrupt optionally returns a corrupted copy of data at site.
	Corrupt(site string, data []byte) ([]byte, bool)
}

// ErrCorrupt matches (via errors.Is) a Get that found an entry whose
// bytes failed integrity verification. The entry has already been
// quarantined; callers treat the key as absent and recompute.
var ErrCorrupt = errors.New("store: corrupt entry")

// Entry framing: every on-disk entry is a fixed header — magic, then the
// SHA-256 of the payload — followed by the payload. Get verifies the
// digest on every read, so a flipped bit anywhere in the file (header or
// payload) is detected before the bytes are served as a cached result.
const (
	entryMagic      = "SDS1"
	entryHeaderSize = len(entryMagic) + sha256.Size
)

// quarantineDirName is where corrupt entries are moved, preserved for
// post-mortem under <root>/quarantine/<key>.
const quarantineDirName = "quarantine"

// DefaultQuarantineTTL is how long quarantined corrupt entries are kept
// for post-mortem before OpenDisk sweeps them. Quarantine is evidence,
// not storage: unbounded retention would let a slowly-rotting disk fill
// itself with its own corpses.
const DefaultQuarantineTTL = 7 * 24 * time.Hour

// SealEntry frames payload with the store's integrity header (magic plus
// the SHA-256 of the payload). It is the on-disk entry format, and also
// the peer-transfer format of internal/cluster: a fetched entry is
// verified with OpenEntry on the receiving node, so a corrupt peer
// response is detected exactly like a flipped bit on local disk.
func SealEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, entryHeaderSize+len(payload))
	buf = append(buf, entryMagic...)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// OpenEntry verifies raw's framing and digest and returns the payload.
func OpenEntry(raw []byte) ([]byte, error) {
	if len(raw) < entryHeaderSize || !bytes.HasPrefix(raw, []byte(entryMagic)) {
		return nil, errors.New("bad entry header")
	}
	payload := raw[entryHeaderSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[len(entryMagic):entryHeaderSize]) {
		return nil, errors.New("payload digest mismatch")
	}
	return payload, nil
}

// Disk is a content-addressed on-disk byte store. Each entry lives at
// <root>/<key[:2]>/<key> framed by a checksummed header that Get verifies
// on every read; corrupt entries are quarantined to <root>/quarantine/
// and reported as ErrCorrupt so the tier above recomputes them
// (read-repair). Writes go through a temp file plus rename, so a crash
// mid-write never leaves a truncated entry behind; temp files orphaned by
// a crash are swept at OpenDisk time. Keys are expected to be hex
// digests; anything that could escape the root is rejected.
type Disk struct {
	root   string
	faults Faults

	corruptions atomic.Uint64 // entries that failed verification
	quarantined atomic.Uint64 // corrupt entries preserved in quarantine/
	orphans     atomic.Uint64 // tmp files swept at open
	qswept      atomic.Uint64 // aged-out quarantine files swept at open
}

// OpenDisk opens (creating if needed) an on-disk store rooted at root,
// sweeping any orphaned temp files a previous crash left behind and any
// quarantined entries older than DefaultQuarantineTTL.
func OpenDisk(root string) (*Disk, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening disk layer: %w", err)
	}
	d := &Disk{root: root}
	d.sweepOrphans()
	d.sweepQuarantine()
	return d, nil
}

// SetFaults arms the disk layer's fault-injection seam (nil disarms).
// Not safe to call concurrently with Get/Put.
func (d *Disk) SetFaults(f Faults) { d.faults = f }

// Root returns the store's root directory.
func (d *Disk) Root() string { return d.root }

// QuarantineDir returns the directory corrupt entries are moved to.
func (d *Disk) QuarantineDir() string { return filepath.Join(d.root, quarantineDirName) }

// Corruptions returns how many entries failed integrity verification.
func (d *Disk) Corruptions() uint64 { return d.corruptions.Load() }

// Quarantined returns how many corrupt entries were preserved in the
// quarantine directory (<= Corruptions; a failed move deletes instead).
func (d *Disk) Quarantined() uint64 { return d.quarantined.Load() }

// OrphansSwept returns how many crash-orphaned temp files OpenDisk
// removed.
func (d *Disk) OrphansSwept() uint64 { return d.orphans.Load() }

// QuarantineSwept returns how many aged-out quarantined entries OpenDisk
// removed.
func (d *Disk) QuarantineSwept() uint64 { return d.qswept.Load() }

func validKey(key string) error {
	if len(key) < 4 || len(key) > 256 {
		return fmt.Errorf("store: key %q has unreasonable length", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return fmt.Errorf("store: key %q is not a lowercase hex digest", key)
		}
	}
	return nil
}

func (d *Disk) path(key string) string {
	return filepath.Join(d.root, key[:2], key)
}

// isTmpName matches the temp files Put creates ("." + key + ".tmp" +
// random suffix).
func isTmpName(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp")
}

// sweepOrphans removes temp files left by a crash mid-Put. The
// quarantine directory is left untouched.
func (d *Disk) sweepOrphans() {
	filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil // best effort: an unreadable corner must not fail open
		}
		if de.IsDir() {
			if de.Name() == quarantineDirName && path != d.root {
				return fs.SkipDir
			}
			return nil
		}
		if isTmpName(de.Name()) {
			if os.Remove(path) == nil {
				d.orphans.Add(1)
			}
		}
		return nil
	})
}

// sweepQuarantine removes quarantined entries whose modification time —
// set when quarantine moved them, i.e. when the corruption was detected —
// is older than DefaultQuarantineTTL. Mirrors the orphan-.tmp sweep: best
// effort, at open only, so quarantine keeps recent evidence without
// growing forever.
func (d *Disk) sweepQuarantine() {
	cutoff := time.Now().Add(-DefaultQuarantineTTL)
	entries, err := os.ReadDir(d.QuarantineDir())
	if err != nil {
		return // no quarantine directory yet, or unreadable: nothing to age out
	}
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil || !info.ModTime().Before(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(d.QuarantineDir(), de.Name())) == nil {
			d.qswept.Add(1)
		}
	}
}

// Get returns the stored bytes for key. A missing entry is (nil, false,
// nil); an unreadable one reports its error; one that fails integrity
// verification is quarantined and reported as an error matching
// ErrCorrupt.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	if d.faults != nil {
		if err := d.faults.Fail(SiteDiskRead); err != nil {
			return nil, false, fmt.Errorf("store: reading %s: %w", key, err)
		}
	}
	raw, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", key, err)
	}
	if d.faults != nil {
		raw, _ = d.faults.Corrupt(SiteDiskRead, raw)
	}
	payload, verr := OpenEntry(raw)
	if verr != nil {
		d.corruptions.Add(1)
		d.quarantine(key)
		return nil, false, fmt.Errorf("store: entry %s: %v: %w", key, verr, ErrCorrupt)
	}
	return payload, true, nil
}

// quarantine moves the entry for key out of the serving tree, preserving
// it under quarantine/ for post-mortem (removed outright if the move
// fails — a corrupt entry must never be served again).
func (d *Disk) quarantine(key string) {
	src := d.path(key)
	qdir := d.QuarantineDir()
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(src, filepath.Join(qdir, key)) == nil {
			d.quarantined.Add(1)
			return
		}
	}
	os.Remove(src)
}

// Put atomically stores data under key (framed with its integrity
// header).
func (d *Disk) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if d.faults != nil {
		if err := d.faults.Fail(SiteDiskWrite); err != nil {
			return fmt.Errorf("store: writing %s: %w", key, err)
		}
	}
	dir := filepath.Dir(d.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	_, werr := tmp.Write(SealEntry(data))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil && d.faults != nil {
		werr = d.faults.Fail(SiteDiskRename)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), d.path(key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, werr)
	}
	return nil
}

// Len walks the store and returns the number of entries, not counting
// quarantined ones (it is O(entries); intended for tests and
// diagnostics, not hot paths).
func (d *Disk) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if de.Name() == quarantineDirName && path != d.root {
				return fs.SkipDir
			}
			return nil
		}
		if validKey(de.Name()) == nil {
			n++
		}
		return nil
	})
	return n, err
}
