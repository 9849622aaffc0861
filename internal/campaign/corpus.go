package campaign

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vino/internal/fault"
	"vino/internal/harness"
)

// The corpus: every novel signature's minimal reproducer, serialized in
// a form that is simultaneously a campaign artifact and a plain
// vinosim faultfile. The header rides in '#' comments (which
// fault.Decode ignores), so a corpus entry replays directly with
// `vinosim chaos -faultfile=<entry>` plus the recorded knobs — and the
// corpus-golden CI step re-runs every entry and asserts its recorded
// signature still comes out.

// Entry is one corpus reproducer: a (usually minimized) plan plus the
// chaos knobs and normalized signature it reproduces.
type Entry struct {
	// Signature is the normalized signature the plan reproduces.
	Signature string
	// Removed counts rules the shrinker deleted from the discovering
	// plan (0 if minimization was skipped or degenerate).
	Removed int
	// Iterations, NCPU, Extended, Crash are the chaos knobs the
	// signature was recorded under.
	Iterations int
	NCPU       int
	Extended   bool
	Crash      bool
	// Plan is the reproducer.
	Plan *fault.Plan
}

func newEntry(cfg Config, sig string, plan *fault.Plan, removed int) *Entry {
	return &Entry{
		Signature:  sig,
		Removed:    removed,
		Iterations: cfg.Iterations,
		NCPU:       cfg.NCPU,
		Extended:   cfg.Extended,
		Crash:      cfg.Crash,
		Plan:       plan,
	}
}

// ChaosConfig returns the replay configuration for the entry.
func (e *Entry) ChaosConfig() harness.ChaosConfig {
	return harness.ChaosConfig{
		Plan:       e.Plan,
		Iterations: e.Iterations,
		NCPU:       e.NCPU,
		Extended:   e.Extended,
		Crash:      e.Crash,
	}
}

// Replay runs the entry and returns the normalized signature observed.
func (e *Entry) Replay() (string, error) {
	rep, err := harness.RunChaos(e.ChaosConfig())
	if err != nil {
		return "error " + harness.NormalizeShape(err.Error()), nil
	}
	return harness.NormalizedSignature(rep), nil
}

// Name returns the entry's stable corpus file stem: a slug of the
// signature plus a hash of its full text (slugs collide; hashes don't).
func (e *Entry) Name() string {
	h := fnv.New32a()
	h.Write([]byte(e.Signature))
	return fmt.Sprintf("%s-%08x", slug(e.Signature), h.Sum32())
}

// slug folds a signature into a short filesystem-safe stem.
func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		case b.Len() > 0 && !dash:
			b.WriteByte('-')
			dash = true
		}
		if b.Len() >= 48 {
			break
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// Encode renders the entry: a commented header over the plan text.
func (e *Entry) Encode() string {
	var b strings.Builder
	b.WriteString("# vino-campaign reproducer\n")
	fmt.Fprintf(&b, "# signature: %s\n", e.Signature)
	fmt.Fprintf(&b, "# chaos: iterations=%d ncpu=%d extended=%v crash=%v\n",
		e.Iterations, e.NCPU, e.Extended, e.Crash)
	fmt.Fprintf(&b, "# shrunk: %d rules removed\n", e.Removed)
	b.WriteString(e.Plan.Encode())
	return b.String()
}

// DecodeEntry parses an Encode'd corpus entry (header + plan).
func DecodeEntry(s string) (*Entry, error) {
	e := &Entry{Iterations: 16, NCPU: 1}
	sawSig := false
	for _, raw := range strings.Split(s, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "# signature: "):
			e.Signature = strings.TrimPrefix(line, "# signature: ")
			sawSig = true
		case strings.HasPrefix(line, "# chaos: "):
			for _, f := range strings.Fields(strings.TrimPrefix(line, "# chaos: ")) {
				key, val, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fmt.Errorf("campaign: malformed chaos field %q", f)
				}
				switch key {
				case "iterations":
					n, err := strconv.Atoi(val)
					if err != nil || n <= 0 {
						return nil, fmt.Errorf("campaign: bad iterations=%q", val)
					}
					e.Iterations = n
				case "ncpu":
					n, err := strconv.Atoi(val)
					if err != nil || n <= 0 {
						return nil, fmt.Errorf("campaign: bad ncpu=%q", val)
					}
					e.NCPU = n
				case "extended", "crash":
					// Exactly what Encode writes: a hand-edited entry must
					// not replay without the knob it names.
					if val != "true" && val != "false" {
						return nil, fmt.Errorf("campaign: bad %s=%q", key, val)
					}
					if key == "extended" {
						e.Extended = val == "true"
					} else {
						e.Crash = val == "true"
					}
				default:
					return nil, fmt.Errorf("campaign: unknown chaos field %q", f)
				}
			}
		case strings.HasPrefix(line, "# shrunk: "):
			count, ok := strings.CutSuffix(strings.TrimPrefix(line, "# shrunk: "), " rules removed")
			n, err := strconv.Atoi(count)
			if !ok || err != nil || n < 0 {
				return nil, fmt.Errorf("campaign: bad shrunk line %q", line)
			}
			e.Removed = n
		}
	}
	if !sawSig {
		return nil, fmt.Errorf("campaign: entry missing '# signature:' header")
	}
	plan, err := fault.Decode(s)
	if err != nil {
		return nil, fmt.Errorf("campaign: entry plan: %w", err)
	}
	e.Plan = plan
	return e, nil
}

// WriteCorpus writes every entry to dir as <name>.plan, creating dir if
// needed, and removes stale .plan files from earlier campaigns so the
// directory always mirrors exactly this report's corpus.
func (r *Report) WriteCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	keep := make(map[string]bool)
	for _, e := range r.Corpus {
		name := e.Name() + ".plan"
		keep[name] = true
		if err := os.WriteFile(filepath.Join(dir, name), []byte(e.Encode()), 0o644); err != nil {
			return err
		}
	}
	old, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil {
		return err
	}
	for _, path := range old {
		if !keep[filepath.Base(path)] {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadCorpus reads every .plan entry in dir, sorted by file name.
func LoadCorpus(dir string) ([]*Entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Entry
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		e, err := DecodeEntry(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// CorpusDump renders the corpus deterministically for comparison: each
// entry's name, signature and encoded form.
func (r *Report) CorpusDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign corpus: %d entries\n", len(r.Corpus))
	for _, e := range r.Corpus {
		fmt.Fprintf(&b, "--- %s\n%s", e.Name(), e.Encode())
	}
	return b.String()
}
