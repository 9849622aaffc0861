package crash

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Durable checkpoints. When a persist directory is configured, every
// TakeCheckpoint also writes a gob-encoded manifest (cp-<seq>.gob) with
// each Exporter subsystem's portable state, so a crashed run can be
// restored across process restarts — the simulated analogue of
// checkpointing to stable storage instead of RAM.
//
// Persistence is deliberately coarser than the in-memory ring: only
// subsystems implementing Exporter contribute. The kernel exports its
// log and pid counter (processes hold live threads and are rebuilt by
// the workload); the file system its file contents; the graft registry
// every installed graft with its signed image, which the importer
// re-links through the same loader checks as a fresh install; the
// network stack its listeners; txn, lock and vmm their lifetime
// counters. Purely volatile machinery — the VM frame pool, lock
// tables, open connections — starts empty after import, exactly as
// RAM-resident state does after a reboot.
//
// The directory is compacted with an exponential-age policy: the newest
// manifest is always kept, and one survivor is kept per power-of-two
// band of seq-distance behind it, so N checkpoints leave O(log N) files
// whose density thins with age.

// Exporter is implemented by subsystems whose checkpoint state can be
// serialised to stable storage. CrashExport runs at checkpoint time (a
// quiescent instant, so live state equals checkpointed state);
// CrashImport replaces live state with a previously exported image.
type Exporter interface {
	Snapshotter
	// CrashExport serialises the subsystem's durable state.
	CrashExport() ([]byte, error)
	// CrashImport replaces live state with an exported image.
	CrashImport(data []byte) error
}

// diskManifest is the on-disk image of one checkpoint.
type diskManifest struct {
	Seq  int64
	At   time.Duration
	Subs map[string][]byte // CrashName -> CrashExport payload
}

// SetPersistDir enables durable checkpoints under dir (created if
// missing). Persistence failures, including a directory that cannot be
// created, do not disturb the in-memory ring; the last error is
// retained for PersistErr.
func (m *Manager) SetPersistDir(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		m.persistErr = fmt.Errorf("crash: checkpoint dir: %w", err)
		return
	}
	m.persistDir = dir
}

// PersistDir returns the durable-checkpoint directory ("" when
// persistence is off).
func (m *Manager) PersistDir() string { return m.persistDir }

// PersistErr returns the most recent persistence failure, if any.
func (m *Manager) PersistErr() error { return m.persistErr }

func (m *Manager) manifestPath(seq int64) string {
	return filepath.Join(m.persistDir, fmt.Sprintf("cp-%d.gob", seq))
}

// persist writes cp's manifest (tmp + rename, so readers never see a
// torn file) and compacts the directory.
func (m *Manager) persist(cp *checkpoint) {
	if m.persistDir == "" {
		return
	}
	man := &diskManifest{Seq: cp.seq, At: cp.at, Subs: make(map[string][]byte)}
	for _, s := range m.subs {
		e, ok := s.(Exporter)
		if !ok {
			continue
		}
		data, err := e.CrashExport()
		if err != nil {
			m.persistErr = fmt.Errorf("crash: export %s: %w", e.CrashName(), err)
			return
		}
		man.Subs[e.CrashName()] = data
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(man); err != nil {
		m.persistErr = fmt.Errorf("crash: encode checkpoint %d: %w", cp.seq, err)
		return
	}
	tmp := m.manifestPath(cp.seq) + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		m.persistErr = err
		return
	}
	if err := os.Rename(tmp, m.manifestPath(cp.seq)); err != nil {
		m.persistErr = err
		return
	}
	m.compactDisk(cp.seq)
}

// diskSeqs lists persisted checkpoint seqs, ascending.
func (m *Manager) diskSeqs() ([]int64, error) {
	ents, err := os.ReadDir(m.persistDir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "cp-") || !strings.HasSuffix(name, ".gob") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "cp-"), ".gob"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// compactDisk applies the exponential-age policy: keep the newest
// manifest, plus the newest survivor in each power-of-two band of
// seq-distance ([1,2), [2,4), [4,8), ...) behind it.
func (m *Manager) compactDisk(newest int64) {
	seqs, err := m.diskSeqs()
	if err != nil {
		m.persistErr = err
		return
	}
	kept := make(map[int]bool) // band exponent -> occupied
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		if seq >= newest {
			continue // the newest (or a straggler beyond it) always stays
		}
		band := 0
		for d := newest - seq; d > 1; d >>= 1 {
			band++
		}
		if kept[band] {
			if err := os.Remove(m.manifestPath(seq)); err != nil {
				m.persistErr = err
			}
			continue
		}
		kept[band] = true
	}
}

// RestoreFromDisk imports the newest persisted checkpoint into every
// Exporter subsystem and returns its virtual time. The in-memory ring
// is cleared: the kernel resets the clock to the returned time, and the
// kernel's own caller takes the first checkpoint of the imported state
// once that state is whole. Subsystems without an Exporter keep their
// freshly initialised state, as after a reboot. A manifest that lacks
// a registered exporter's payload is an error, and nothing is imported.
func (m *Manager) RestoreFromDisk() (time.Duration, error) {
	if m.persistDir == "" {
		return 0, fmt.Errorf("crash: no persist directory configured")
	}
	seqs, err := m.diskSeqs()
	if err != nil {
		return 0, err
	}
	if len(seqs) == 0 {
		return 0, fmt.Errorf("crash: no persisted checkpoints in %s", m.persistDir)
	}
	seq := seqs[len(seqs)-1]
	data, err := os.ReadFile(m.manifestPath(seq))
	if err != nil {
		return 0, err
	}
	var man diskManifest
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&man); err != nil {
		return 0, fmt.Errorf("crash: decode checkpoint %d: %w", seq, err)
	}
	// Every exporter needs its payload before any imports: one restored
	// fresh beside the others (an empty file system) is not a restore.
	var exporters []Exporter
	for _, s := range m.subs {
		if e, ok := s.(Exporter); ok {
			if _, ok := man.Subs[e.CrashName()]; !ok {
				return 0, fmt.Errorf("crash: checkpoint %d has no %s payload", seq, e.CrashName())
			}
			exporters = append(exporters, e)
		}
	}
	for _, e := range exporters {
		if err := e.CrashImport(man.Subs[e.CrashName()]); err != nil {
			return 0, fmt.Errorf("crash: import %s: %w", e.CrashName(), err)
		}
	}
	m.entries = nil
	m.seq = man.Seq
	return man.At, nil
}
