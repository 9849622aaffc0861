// Package campaign is the coverage-guided chaos fuzzer for kernel
// survival: fleet-scale sweeps over the fault-injection configuration
// space, in the spirit of SystemTap-style failure-injection campaigns
// (systematic sweeps + result classification) and Quest-V's fleet
// framing — confidence comes from surviving many independent failing
// instances, not one lucky run.
//
// The genome is the fault plan's Encode/Decode text form. A campaign
// runs in generations: each generation carries one plan per shard, the
// shards execute as isolated kernel instances (harness.RunChaos) on a
// bounded worker pool, and every run is fingerprinted by its normalized
// trace/panic/abort signature (harness.NormalizedSignature). The
// coverage map records every signature seen; plans that produce a
// signature never seen before are "novel", join the parent pool that
// the next generation's mutations are biased toward, and are distilled
// through the ddmin minimizer into minimal reproducers for the corpus.
//
// Determinism: for a fixed (Seed, Shards) the campaign is a pure
// function of its config, regardless of worker-pool size. Workers race
// only on wall-clock — results land in a slice indexed by shard and are
// merged in shard order, and every random draw (plan generation,
// parent selection, mutation) happens on the sequential merge path from
// rngs seeded by (Seed, generation). Two runs at workers=1 and
// workers=16 produce byte-identical coverage maps and corpora.
package campaign

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"vino/internal/fault"
	"vino/internal/harness"
	"vino/internal/par"
)

// Config parameterises one campaign.
type Config struct {
	// Seed is the campaign master seed: it drives initial plan
	// derivation, parent selection and mutation. Together with Shards it
	// fully determines the campaign's outcome.
	Seed int64
	// Runs is the total run budget (default 256). The campaign executes
	// ceil(Runs/Shards) generations, truncating the last.
	Runs int
	// Shards is the population width: each generation carries one plan
	// per shard, and initial seeds derive per shard index. A determinism
	// parameter — changing it changes the campaign; changing Workers
	// does not (default 8).
	Shards int
	// Workers bounds the parallel worker pool (wall-clock only; default
	// min(Shards, GOMAXPROCS)).
	Workers int
	// Iterations sizes each chaos run's workload phases (default 16,
	// the -quick size, so a 256-run campaign finishes in seconds).
	Iterations int
	// NCPU is the simulated CPU count per kernel instance (default 1).
	NCPU int
	// Extended widens each run's fault surface (netio class, pager
	// phase).
	Extended bool
	// Crash arms each run's crash phase: plans carry panic rules and
	// injected kernel panics are contained and recovered. This is where
	// most signature diversity lives.
	Crash bool
	// MaxCorpus caps how many novel-signature plans are distilled into
	// minimized reproducers (default 16; 0 keeps the default, negative
	// disables minimization entirely).
	MaxCorpus int
	// RedTeam arms each run's red-team phase: the adversarial SFI
	// escape corpus plus an in-kernel compartment-violation probe. An
	// escape surfaces as an invariant violation in that run's
	// signature. Off by default, keeping existing campaign artifacts
	// byte-identical.
	RedTeam bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Runs <= 0 {
		cfg.Runs = 256
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Shards {
		cfg.Workers = cfg.Shards
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 16
	}
	if cfg.NCPU <= 0 {
		cfg.NCPU = 1
	}
	if cfg.MaxCorpus == 0 {
		cfg.MaxCorpus = 16
	}
	return cfg
}

// SigStat is one coverage-map row: how often a signature was seen and
// where it was first discovered.
type SigStat struct {
	Count      int
	FirstGen   int
	FirstShard int
}

// Report is a campaign's outcome. Every field except Wall is a pure
// function of (Config.Seed, Config.Shards) and the chaos knobs;
// CoverageDump and the corpus entries are the byte-stable determinism
// artifacts.
type Report struct {
	// Config echoes the resolved configuration the campaign ran with.
	Config Config
	// Runs counts chaos runs executed (excluding minimizer replays).
	Runs int
	// Generations counts evolution steps taken.
	Generations int
	// Coverage maps every normalized signature seen to its stats.
	Coverage map[string]*SigStat
	// Novel lists signatures in discovery order (generation, then shard).
	Novel []string
	// Corpus holds the minimized reproducers, in discovery order of
	// their signatures (capped at Config.MaxCorpus).
	Corpus []*Entry
	// MinimizeRuns counts the extra chaos replays the shrinker spent.
	MinimizeRuns int
	// DirtyRuns counts runs that failed the survival audit (violations,
	// failed follow-up, fatal panic) or errored in the harness itself —
	// a campaign over a correct kernel keeps this at zero, which is what
	// the CI smoke asserts.
	DirtyRuns int
	// Dirty holds one exemplar line per distinct dirty signature.
	Dirty []string
	// Wall is the campaign's wall-clock time (not deterministic; never
	// part of the dumps).
	Wall time.Duration
}

// outcome is one run's merged result.
type outcome struct {
	sig      string
	survived bool
	err      string
}

// Run executes the campaign.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Config: cfg, Coverage: make(map[string]*SigStat)}

	shards := cfg.Shards
	prev := make([]*fault.Plan, shards)    // previous generation, by shard
	lineage := make([]*fault.Plan, shards) // current generation's parents (nil = fresh)
	var parents []*fault.Plan              // plans credited with novel signatures
	novelPlan := make(map[string]*fault.Plan)
	dirtySeen := make(map[string]bool)

	for gen := 0; rep.Runs < cfg.Runs; gen++ {
		count := shards
		if rem := cfg.Runs - rep.Runs; rem < count {
			count = rem
		}
		plans := nextGeneration(cfg, gen, count, prev, parents, lineage)
		outs := runGeneration(cfg, plans)

		// Merge strictly in shard order: coverage, novelty, parent
		// credit. This loop is the only place campaign state advances,
		// so worker scheduling cannot influence it.
		for s := 0; s < count; s++ {
			o := outs[s]
			rep.Runs++
			st := rep.Coverage[o.sig]
			if st == nil {
				st = &SigStat{FirstGen: gen, FirstShard: s}
				rep.Coverage[o.sig] = st
				rep.Novel = append(rep.Novel, o.sig)
				novelPlan[o.sig] = plans[s]
				parents = append(parents, plans[s])
				if lineage[s] != nil {
					parents = append(parents, lineage[s])
				}
				if len(parents) > parentPool {
					parents = parents[len(parents)-parentPool:]
				}
			}
			st.Count++
			if o.err != "" || !o.survived {
				rep.DirtyRuns++
				if !dirtySeen[o.sig] {
					dirtySeen[o.sig] = true
					line := o.sig
					if o.err != "" {
						line = "harness error: " + o.err
					}
					rep.Dirty = append(rep.Dirty, fmt.Sprintf("g%d/s%d %s", gen, s, line))
				}
			}
		}
		copy(prev, plans)
		rep.Generations = gen + 1
	}

	if cfg.MaxCorpus > 0 {
		rep.Corpus, rep.MinimizeRuns = distillCorpus(cfg, rep.Novel, novelPlan)
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// parentPool caps the novelty-credited parent pool so mutation pressure
// favours recent discoveries.
const parentPool = 64

// nextGeneration builds the generation's plans sequentially in shard
// order from a (Seed, gen)-derived rng — the deterministic heart of the
// campaign. Generation zero is all fresh seed-derived plans; later
// generations mutate the novelty parent pool (45%), hill-climb their
// own shard's previous plan (40%), or inject a fresh plan (15%).
func nextGeneration(cfg Config, gen, count int, prev, parents []*fault.Plan, lineage []*fault.Plan) []*fault.Plan {
	rng := rand.New(rand.NewSource(mix(cfg.Seed, int64(gen))))
	plans := make([]*fault.Plan, count)
	for s := 0; s < count; s++ {
		lineage[s] = nil
		if gen == 0 {
			plans[s] = freshPlan(cfg, rng.Int63())
			continue
		}
		switch p := rng.Float64(); {
		case len(parents) > 0 && p < 0.45:
			parent := parents[rng.Intn(len(parents))]
			lineage[s] = parent
			plans[s] = fault.MutatePlan(parent, rng)
		case prev[s] != nil && p < 0.85:
			lineage[s] = prev[s]
			plans[s] = fault.MutatePlan(prev[s], rng)
		default:
			plans[s] = freshPlan(cfg, rng.Int63())
		}
	}
	return plans
}

// freshPlan derives a new-blood plan from one seed draw, exactly as
// RunChaos derives one from its seed.
func freshPlan(cfg Config, seed int64) *fault.Plan {
	classes := fault.Classes()
	if cfg.Extended {
		classes = fault.ExtendedClasses()
	}
	return harness.FreshPlan(seed, classes, cfg.Crash)
}

// runGeneration executes one generation's plans on the bounded worker
// pool. Results land in a slice indexed by shard; nothing here mutates
// campaign state.
func runGeneration(cfg Config, plans []*fault.Plan) []outcome {
	outs := make([]outcome, len(plans))
	par.Each(cfg.Workers, len(plans), func(i int) { outs[i] = runOne(cfg, plans[i]) })
	return outs
}

// runOne executes a single isolated kernel instance under plan.
func runOne(cfg Config, plan *fault.Plan) outcome {
	rep, err := harness.RunChaos(chaosConfig(cfg, plan))
	if err != nil {
		return outcome{sig: "error " + harness.NormalizeShape(err.Error())}
	}
	return outcome{sig: harness.NormalizedSignature(rep), survived: rep.Survived()}
}

// chaosConfig maps campaign knobs onto one run's chaos config.
func chaosConfig(cfg Config, plan *fault.Plan) harness.ChaosConfig {
	return harness.ChaosConfig{
		Plan:       plan,
		Iterations: cfg.Iterations,
		NCPU:       cfg.NCPU,
		Extended:   cfg.Extended,
		Crash:      cfg.Crash,
		RedTeam:    cfg.RedTeam,
	}
}

// distillCorpus shrinks each novel signature's discovering plan into a
// minimal reproducer. Signatures are processed in discovery order with
// results merged by index, and each ddmin reduction is itself
// deterministic, so the corpus is part of the determinism artifact;
// minimizations of different signatures run concurrently.
func distillCorpus(cfg Config, novel []string, novelPlan map[string]*fault.Plan) ([]*Entry, int) {
	n := len(novel)
	if n > cfg.MaxCorpus {
		n = cfg.MaxCorpus
	}
	entries := make([]*Entry, n)
	runs := make([]int, n)
	par.Each(cfg.Workers, n, func(i int) {
		sig := novel[i]
		plan := novelPlan[sig]
		res, err := harness.MinimizeTo(chaosConfig(cfg, plan), harness.NormalizedSignature)
		if err != nil {
			// The baseline errored (a harness-error signature): keep
			// the un-shrunk plan as the reproducer.
			entries[i] = newEntry(cfg, sig, plan, 0)
			return
		}
		runs[i] = res.Runs
		entries[i] = newEntry(cfg, sig, res.Plan, res.Removed)
	})
	total := 0
	for _, r := range runs {
		total += r
	}
	return entries, total
}

// CoverageDump renders the coverage map in a byte-stable form: one line
// per signature, sorted lexicographically, with count and first-seen
// coordinates. Two campaigns with equal (Seed, Shards) produce equal
// dumps at any worker count.
func (r *Report) CoverageDump() string {
	sigs := make([]string, 0, len(r.Coverage))
	for s := range r.Coverage {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	var b strings.Builder
	fmt.Fprintf(&b, "campaign coverage: seed %d, %d shards, %d runs, %d signatures\n",
		r.Config.Seed, r.Config.Shards, r.Runs, len(sigs))
	for _, s := range sigs {
		st := r.Coverage[s]
		fmt.Fprintf(&b, "%5dx g%02d/s%02d %s\n", st.Count, st.FirstGen, st.FirstShard, s)
	}
	return b.String()
}

// Summary renders the human-readable result (deterministic apart from
// the trailing wall-clock line).
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: seed %d, %d runs in %d generations (%d shards, %d workers)\n",
		r.Config.Seed, r.Runs, r.Generations, r.Config.Shards, r.Config.Workers)
	fmt.Fprintf(&b, "campaign: %d distinct signatures, %d corpus reproducers (%d shrink replays)\n",
		len(r.Coverage), len(r.Corpus), r.MinimizeRuns)
	if r.DirtyRuns > 0 {
		fmt.Fprintf(&b, "campaign: AUDIT DIRTY: %d runs failed the survival audit\n", r.DirtyRuns)
		for _, d := range r.Dirty {
			fmt.Fprintf(&b, "campaign: dirty: %s\n", d)
		}
	} else {
		fmt.Fprintf(&b, "campaign: survival audit clean: every run survived its plan\n")
	}
	secs := r.Wall.Seconds()
	if secs > 0 {
		fmt.Fprintf(&b, "campaign: wall %.1fs, %.1f runs/sec\n", secs, float64(r.Runs)/secs)
	}
	return b.String()
}

// mix hashes two seeds into one rng stream id (splitmix64 finalizer).
// Unlike par.Mix it also multiplies and offsets b; the coverage golden
// depends on its streams.
func mix(a, b int64) int64 {
	z := uint64(a)*0x9E3779B97F4A7C15 + uint64(b)*0xBF58476D1CE4E5B9 + 0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}
