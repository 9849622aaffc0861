package fs

// Name resolution: the third Black Box graft of the paper's taxonomy
// ("file system read-ahead, access control checking, and name
// resolution are examples of Black Box grafts", §4). The file system
// gets a hierarchical namespace, and each user may graft a
// path-translation function consulted on every lookup *by that user* —
// per-process namespaces, alias maps, chroot-style confinement — a
// Local graft point, so a malicious translator only affects the user
// who installed it (rule 8). Access-control checking, the taxonomy's
// other example, is registered as a Restricted point: per rule 5,
// security enforcement modules are never graftable.

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"vino/internal/graft"
	"vino/internal/sched"
)

// CleanPath canonicalises a path: slash-separated, no leading slash, no
// empty or dot components.
func CleanPath(p string) (string, error) {
	parts := strings.Split(p, "/")
	out := parts[:0]
	for _, c := range parts {
		switch c {
		case "", ".":
			continue
		case "..":
			return "", fmt.Errorf("fs: %q: parent references not supported", p)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "", fmt.Errorf("fs: empty path")
	}
	return strings.Join(out, "/"), nil
}

// Mkdir creates a directory. Parents must exist; the root exists
// implicitly.
func (fs *FS) Mkdir(path string, owner graft.UID) error {
	p, err := CleanPath(path)
	if err != nil {
		return err
	}
	if fs.dirs[p] {
		return fmt.Errorf("fs: %q exists", p)
	}
	if _, ok := fs.files[p]; ok {
		return fmt.Errorf("fs: %q exists as a file", p)
	}
	if err := fs.checkParent(p); err != nil {
		return err
	}
	fs.dirs[p] = true
	return nil
}

func (fs *FS) checkParent(p string) error {
	i := strings.LastIndex(p, "/")
	if i < 0 {
		return nil // root
	}
	parent := p[:i]
	if !fs.dirs[parent] {
		return fmt.Errorf("%w: directory %q", ErrNotFound, parent)
	}
	return nil
}

// ReadDir lists the immediate children of a directory.
func (fs *FS) ReadDir(path string) ([]string, error) {
	prefix := ""
	if path != "" && path != "/" {
		p, err := CleanPath(path)
		if err != nil {
			return nil, err
		}
		if !fs.dirs[p] {
			return nil, fmt.Errorf("%w: directory %q", ErrNotFound, p)
		}
		prefix = p + "/"
	}
	seen := make(map[string]bool)
	var out []string
	add := func(full string) {
		if !strings.HasPrefix(full, prefix) {
			return
		}
		rest := full[len(prefix):]
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" && !seen[rest] {
			seen[rest] = true
			out = append(out, rest)
		}
	}
	for name := range fs.files {
		add(name)
	}
	for d := range fs.dirs {
		add(d)
	}
	return out, nil
}

// resolvePointName is the per-user translation point.
func resolvePointName(uid graft.UID) string {
	return fmt.Sprintf("fs/uid-%d.resolve", uid)
}

// Heap layout for the resolve graft: the kernel writes the request path
// length at ResolveInLen and its bytes at ResolveIn; the graft writes
// the translated path at ResolveOut and returns its length (0 = keep
// the original).
const (
	ResolveInLen  = 504
	ResolveIn     = 512
	ResolveOut    = 1024
	ResolveMaxLen = 255
)

// ResolvePoint returns (registering on first use) the calling user's
// name-resolution graft point.
func (fs *FS) ResolvePoint(t *sched.Thread) *graft.Point {
	uid := graft.ThreadUID(t)
	name := resolvePointName(uid)
	if p, err := fs.k.Grafts.Lookup(name); err == nil {
		return p
	}
	return fs.k.Grafts.RegisterPoint(&graft.Point{
		Name:      name,
		Kind:      graft.Function,
		Privilege: graft.Local,
		// Default: identity — the path resolves as given.
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return 0, nil
		},
		// The graft returns the translated length; bounded or it is
		// detectably invalid.
		Validate: func(t *sched.Thread, args []int64, res int64) (int64, error) {
			if res < 0 || res > ResolveMaxLen {
				return 0, fmt.Errorf("resolve returned length %d", res)
			}
			return res, nil
		},
		IndirectionCost: 500 * time.Nanosecond,
		Watchdog:        30 * time.Millisecond,
	})
}

// Resolve maps a user-visible path to a canonical one, consulting the
// user's translation graft if installed. Lookup costs one small charge
// per component, the simulator's stand-in for directory traversal.
func (fs *FS) Resolve(t *sched.Thread, path string) (string, error) {
	p, err := CleanPath(path)
	if err != nil {
		return "", err
	}
	point := fs.ResolvePoint(t)
	if point.Grafted() {
		g := point.Current()
		heap := g.VM().Heap()
		if len(p) > ResolveMaxLen {
			return "", fmt.Errorf("fs: path too long for translation: %d", len(p))
		}
		binary.LittleEndian.PutUint64(heap[ResolveInLen:], uint64(len(p)))
		copy(heap[ResolveIn:ResolveIn+ResolveMaxLen], make([]byte, ResolveMaxLen))
		copy(heap[ResolveIn:], p)
		n, err := point.Invoke(t, int64(len(p)))
		if err == nil && n > 0 {
			translated := string(heap[ResolveOut : ResolveOut+n])
			p2, cerr := CleanPath(translated)
			if cerr != nil {
				return "", fmt.Errorf("fs: translator produced bad path %q: %w", translated, cerr)
			}
			p = p2
		}
		// On abort the default (identity) result applies and the graft
		// is already removed.
	}
	t.Charge(time.Duration(1+strings.Count(p, "/")) * 200 * time.Nanosecond)
	return p, nil
}

// OpenPath opens a file by hierarchical path through Resolve. Open (by
// exact name) remains for flat-namespace users and tests.
func (fs *FS) OpenPath(t *sched.Thread, path string) (*OpenFile, error) {
	p, err := fs.Resolve(t, path)
	if err != nil {
		return nil, err
	}
	return fs.Open(t, p)
}

// CreateAt creates a file at a hierarchical path, requiring the parent
// directory to exist.
func (fs *FS) CreateAt(path string, size int64, owner graft.UID, public bool) (*File, error) {
	p, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	if fs.dirs[p] {
		return nil, fmt.Errorf("fs: %q is a directory", p)
	}
	if _, ok := fs.files[p]; ok {
		return nil, fmt.Errorf("fs: %q exists", p)
	}
	if err := fs.checkParent(p); err != nil {
		return nil, err
	}
	return fs.Create(p, size, owner, public), nil
}

// RegisterAccessControlPoint registers the taxonomy's access-control
// example as a Restricted point: it appears in the namespace (so tools
// can see the decision exists) but can never be grafted, per rule 5.
func (fs *FS) RegisterAccessControlPoint() *graft.Point {
	if p, err := fs.k.Grafts.Lookup("fs.check-access"); err == nil {
		return p
	}
	return fs.k.Grafts.RegisterPoint(&graft.Point{
		Name:      "fs.check-access",
		Kind:      graft.Function,
		Privilege: graft.Restricted,
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return 1, nil
		},
	})
}
