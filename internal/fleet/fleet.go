// Package fleet is the multi-instance driver over the simulated
// kernel: it shards a synthetic open-loop HTTP-style workload across N
// independent kernel instances, runs the fault and crash machinery on
// each, and exercises the full survival story end to end — a tenant
// whose grafts keep misbehaving is throttled and banned by the tenant
// layer, and an instance that dies is replaced by a fresh kernel
// rebooted from the dead one's durable checkpoint ring, with tenant
// standing carried across the reboot.
//
// Determinism is the fleet's contract: instances are fully independent
// jobs, each seeded with a splitmix64-derived sub-seed and driven by
// its own PRNG, so a fixed (seed, instances, tenants) tuple produces
// byte-identical reports at any worker-pool size. The pool only decides
// which instances run concurrently; results are merged strictly in
// instance order, the same shard discipline the chaos campaign uses.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vino/internal/fault"
	"vino/internal/guard"
	"vino/internal/kernel"
	"vino/internal/netstk"
	"vino/internal/par"
	"vino/internal/resource"
	"vino/internal/tenant"
)

// Config parameterises a fleet run.
type Config struct {
	// Seed drives every deterministic decision: per-instance sub-seeds,
	// arrival interleaving, death rounds, fault plans.
	Seed int64
	// Instances is the number of kernel instances (default 2).
	Instances int
	// Tenants is the number of well-behaved tenants (default 2). Each
	// tenant owns one listener port per instance and installs an echo
	// graft behind it.
	Tenants int
	// Abusive adds one more tenant whose graft allocates kernel heap
	// until its account denies (aborting every invocation) and whose
	// socket grant is too small for its arrival rate — the tenant the
	// escalation ladder exists for.
	Abusive bool
	// Rounds is the number of traffic rounds per instance (default 6).
	Rounds int
	// Arrivals is the per-tenant arrival count per round (default 4);
	// the abusive tenant generates twice that.
	Arrivals int
	// Workers bounds how many instances run concurrently (default 1).
	// The report is byte-identical at any value.
	Workers int
	// CrashFaults arms seed-derived kernel panics at the crash sites;
	// contained panics restore the newest in-memory checkpoint.
	CrashFaults bool
	// Dir is the root of the durable checkpoint rings (one inst-<id>
	// subdirectory per instance). Empty uses a temporary directory
	// removed when the run ends.
	Dir string
}

// tenantLimits is the resource grant each tenant account starts with:
// enough sockets and memory for a round of well-behaved traffic, and a
// kernel-heap budget small enough that a gobbler hits denial within one
// invocation. Tenants walk the default ladder (throttle on the first
// expulsion, ban on the second).
func tenantLimits() map[resource.Kind]int64 {
	return map[resource.Kind]int64{
		resource.Sockets:    64,
		resource.Memory:     1 << 20,
		resource.KernelHeap: 16 << 10,
	}
}

func (c Config) withDefaults() Config {
	if c.Instances <= 0 {
		c.Instances = 2
	}
	if c.Tenants <= 0 {
		c.Tenants = 2
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.Arrivals <= 0 {
		c.Arrivals = 4
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// fleetGuardPolicy is the supervisor ladder for fleet rounds:
// streak-driven with a near-zero backoff, so an always-aborting graft
// walks suspect → quarantine → probation → expelled within a round or
// two of admitted traffic.
func fleetGuardPolicy() guard.Policy {
	return guard.Policy{
		SuspectStreak:    1,
		QuarantineStreak: 2,
		QuarantinePct:    101, // streaks only; fleet rounds are too short for rates
		MinSample:        1 << 30,
		Backoff:          time.Microsecond,
		BackoffFactor:    1,
		MaxBackoff:       time.Microsecond,
		ProbationCommits: 2,
		ProbationStreak:  1,
		WatchdogTighten:  1,
	}
}

// TenantCell is one tenant's request accounting on one instance.
type TenantCell struct {
	Name                 string
	Served, Shed, Failed int64
}

// InstanceResult is one instance's full accounting.
type InstanceResult struct {
	ID int
	// Rounds completed and instance replacements (reboots from the
	// durable checkpoint ring).
	Rounds, Replacements int
	// Recovered counts contained kernel panics (in-memory restores).
	Recovered int
	// Reattached counts grafts rebound to live tenant accounts after a
	// replacement reboot.
	Reattached int
	// Served, Shed and Failed partition the generated arrivals: served
	// (a handler wrote a response and closed), shed (admission control
	// or a socket-limit denial refused it), failed (the request reached
	// a connection but no committed response came back — aborted
	// handlers, expelled ports, mid-round crashes).
	Served, Shed, Failed int64
	// SocketDenials counts accepts refused by tenant socket budgets.
	SocketDenials int64
	// Expulsions sums tenant-attributed graft expulsions.
	Expulsions int
	// CommittedLines is how many round-ledger lines were made durable.
	CommittedLines int
	// Tenants is the final per-tenant standing, sorted by name.
	Tenants []tenant.Health
	// PerTenant is the per-tenant request accounting, tenant order.
	PerTenant []TenantCell
	// Violations lists fleet-audit failures; empty means the instance's
	// invariants held.
	Violations []string
}

// Result is the merged fleet outcome.
type Result struct {
	Cfg       Config
	Instances []InstanceResult
	// Served, Shed and Failed total the instance partitions.
	Served, Shed, Failed int64
	// Arrivals is the total generated request count; the audit requires
	// Served+Shed+Failed == Arrivals.
	Arrivals int64
	// Violations aggregates per-instance audit failures.
	Violations []string
}

// Clean reports whether every instance's audit held.
func (r *Result) Clean() bool { return len(r.Violations) == 0 }

// Run executes the fleet and merges per-instance results in instance
// order.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "vino-fleet-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	results := make([]*InstanceResult, cfg.Instances)
	par.Each(cfg.Workers, cfg.Instances, func(id int) {
		results[id] = runInstance(cfg, id, filepath.Join(dir, fmt.Sprintf("inst-%d", id)))
	})

	res := &Result{Cfg: cfg}
	perTenant := int64(cfg.Arrivals * cfg.Rounds)
	res.Arrivals = int64(cfg.Instances) * perTenant * int64(cfg.Tenants)
	if cfg.Abusive {
		res.Arrivals += int64(cfg.Instances) * 2 * perTenant
	}
	for _, ir := range results {
		res.Instances = append(res.Instances, *ir)
		res.Served += ir.Served
		res.Shed += ir.Shed
		res.Failed += ir.Failed
		for _, v := range ir.Violations {
			res.Violations = append(res.Violations, fmt.Sprintf("inst %d: %s", ir.ID, v))
		}
	}
	if got := res.Served + res.Shed + res.Failed; got != res.Arrivals {
		res.Violations = append(res.Violations,
			fmt.Sprintf("fleet: %d arrivals generated but %d accounted", res.Arrivals, got))
	}
	return res, nil
}

// tenantName returns tenant i's name; the abusive tenant is last.
func tenantName(cfg Config, i int) string {
	if cfg.Abusive && i == cfg.Tenants {
		return "abuser"
	}
	return fmt.Sprintf("t%d", i)
}

// echoSrc is a well-behaved tenant service: read the request, write a
// canned 6-byte response, close. One image name per (tenant,
// generation) so a reinstall after expulsion gets a fresh guard key.
func echoSrc(name string) string {
	return fmt.Sprintf(`
.name %s
.import net.read
.import net.write
.import net.close
.data "SERVED"
.func main
main:
    mov r6, r1
    addi r2, r10, 512
    movi r3, 256
    callk net.read
    mov r1, r6
    mov r2, r10
    movi r3, 6
    callk net.write
    mov r1, r6
    callk net.close
    ret
`, name)
}

// gobbleSrc is the abusive tenant's service: allocate kernel heap until
// the tenant account denies. Every invocation aborts, so the guard
// walks it to expulsion and the tenant layer up the ladder.
func gobbleSrc(name string) string {
	return fmt.Sprintf(`
.name %s
.import vino.kheap_alloc
.func main
main:
    movi r1, 4096
loop:
    callk vino.kheap_alloc
    jmp loop
`, name)
}

// arrival is one generated request.
type arrival struct {
	tenant int // tenant index
	seq    int64
	// outcome
	admitted bool
	conn     *netstk.Conn
	denied   bool // socket-limit denial at accept
	reached  bool // the driver actually attempted the connect
}

// instance is one kernel instance's live state.
type instance struct {
	cfg  Config
	id   int
	dir  string
	k    *kernel.Kernel
	n    *netstk.Net
	treg *tenant.Registry
	rng  *rand.Rand

	res       *InstanceResult
	cells     []*TenantCell
	seqs      []int64 // per-tenant admission sequence numbers
	gens      []int   // per-tenant image generation (bumped on reinstall)
	committed []string
	procSeq   int
}

func (in *instance) violate(format string, args ...any) {
	in.res.Violations = append(in.res.Violations, fmt.Sprintf(format, args...))
}

// kernelConfig is the per-instance kernel configuration; every rebuild
// of the instance (including replacement reboots) uses the same one.
func (in *instance) kernelConfig() kernel.Config {
	gp := fleetGuardPolicy()
	kcfg := kernel.Config{
		ZeroTxnCosts:    true,
		Seed:            par.Mix(in.cfg.Seed, int64(in.id)),
		GuardPolicy:     &gp,
		CheckpointEvery: time.Hour, // explicit round-end checkpoints only
		CheckpointRing:  4,
		CheckpointDir:   in.dir,
	}
	if in.cfg.CrashFaults {
		// The chaos campaign's crash cadence panics roughly once per
		// round — right for a torture chamber, wrong for a fleet that
		// should mostly serve. Thin the seed-derived rules so panics
		// punctuate the run instead of dominating it.
		rules := fault.NewCrashRules(kcfg.Seed, 1)
		for i := range rules {
			rules[i].EveryN *= 4
		}
		kcfg.FaultPlan = &fault.Plan{Seed: kcfg.Seed, Rules: rules}
	}
	return kcfg
}

// boot builds a fresh kernel+network for the instance slot.
func (in *instance) boot() {
	in.k = kernel.New(in.kernelConfig())
	in.n = netstk.New(in.k)
	in.n.BillSockets = true
	in.k.Tenants = in.treg
	in.treg.Adopt(in.k.Clock, in.k.Trace)
}

// tenantCount returns how many tenants the instance hosts.
func (in *instance) tenantCount() int {
	n := in.cfg.Tenants
	if in.cfg.Abusive {
		n++
	}
	return n
}

func (in *instance) port(ti int) int { return 8000 + ti }

// handlerName returns tenant ti's service image name at its current
// image generation.
func (in *instance) handlerName(ti int) string {
	return fmt.Sprintf("svc-%s-g%d", tenantName(in.cfg, ti), in.gens[ti])
}

// handlerSrc returns tenant ti's service source at its current image
// generation.
func (in *instance) handlerSrc(ti int) (name, src string) {
	name = in.handlerName(ti)
	if in.cfg.Abusive && ti == in.cfg.Tenants {
		return name, gobbleSrc(name)
	}
	return name, echoSrc(name)
}

// runInstance drives one instance slot through every round, including
// its scheduled death and replacement.
func runInstance(cfg Config, id int, dir string) *InstanceResult {
	in := &instance{
		cfg: cfg,
		id:  id,
		dir: dir,
		rng: rand.New(rand.NewSource(par.Mix(cfg.Seed, int64(id)))),
		res: &InstanceResult{ID: id},
	}
	in.treg = tenant.New(nil, nil, tenant.Policy{Limits: tenantLimits()})
	nt := in.tenantCount()
	in.seqs = make([]int64, nt)
	in.gens = make([]int, nt)
	for ti := 0; ti < nt; ti++ {
		t := in.treg.Register(tenantName(cfg, ti))
		in.cells = append(in.cells, &TenantCell{Name: t.Name})
	}
	if cfg.Abusive {
		// The abusive tenant's socket grant is deliberately under its
		// arrival rate: the surplus is denied at accept, the §3.2
		// denial-not-degradation edge.
		in.treg.Lookup("abuser").Account.SetLimit(resource.Sockets, 2)
	}
	in.boot()

	// Death round: every instance dies once, at a seed-derived round in
	// [2, Rounds], and is replaced from its durable ring. Drawn before
	// any traffic so the schedule is part of the instance's seed stream.
	dieRound := 0
	if cfg.Rounds >= 2 {
		dieRound = 2 + in.rng.Intn(cfg.Rounds-1)
	}

	// Round 0 baseline: listeners up, first-generation services
	// installed, one durable checkpoint so the first panic (and the
	// first replacement) always has a restore point.
	for ti := 0; ti < nt; ti++ {
		in.n.Listen("tcp", in.port(ti))
	}
	in.installMissing()
	if err := in.k.Run(); err != nil {
		in.violate("baseline run: %v", err)
	}
	in.checkpoint("baseline")

	if in.k.Faults != nil {
		in.k.Faults.EnableCrash()
	}
	for round := 1; round <= cfg.Rounds; round++ {
		in.runRound(round)
		in.res.Rounds = round
		if round == dieRound {
			in.replace(round)
		}
	}

	in.audit()
	in.res.SocketDenials = in.n.Stats().SocketDenials
	in.res.Tenants = in.treg.Report()
	for _, h := range in.res.Tenants {
		in.res.Expulsions += h.Expulsions
	}
	for _, c := range in.cells {
		in.res.PerTenant = append(in.res.PerTenant, *c)
	}
	in.res.CommittedLines = len(in.committed)
	return in.res
}

// installMissing (re)installs each tenant's service behind its port
// when the port has no handlers — at boot, and after an expulsion or a
// restore dropped the graft. A banned tenant's install is refused, so
// its port stays dark.
func (in *instance) installMissing() {
	type job struct {
		ti   int
		name string
		src  string
	}
	var todo []job
	for ti := 0; ti < in.tenantCount(); ti++ {
		port := in.n.Listen("tcp", in.port(ti))
		if len(port.Point().Handlers()) > 0 {
			continue
		}
		tn := tenantName(in.cfg, ti)
		if !in.treg.CanInstall(tn) {
			continue
		}
		// The supervisor bars an expelled image's key for good, so a
		// reinstall needs the next generation's image name.
		if in.k.Guard.Barred(port.Point().Name + "#" + in.handlerName(ti)) {
			in.gens[ti]++
		}
		name, src := in.handlerSrc(ti)
		todo = append(todo, job{ti, name, src})
	}
	if len(todo) == 0 {
		return
	}
	in.procSeq++
	in.k.SpawnProcess(fmt.Sprintf("installer-%d", in.procSeq), 1, func(p *kernel.Process) {
		for _, j := range todo {
			tn := tenantName(in.cfg, j.ti)
			pointName := in.n.Listen("tcp", in.port(j.ti)).Point().Name
			g, err := p.BuildAndInstall(pointName, j.src, in.treg.InstallOptions(tn))
			if err != nil {
				in.violate("install %s for %s: %v", j.name, tn, err)
				continue
			}
			in.treg.BindGraft(tn, g.GuardKey())
		}
	})
}

// genArrivals produces the round's open-loop arrival sequence: each
// tenant contributes Arrivals requests (the abusive tenant twice that),
// interleaved by a weighted deterministic draw from the instance PRNG.
func (in *instance) genArrivals() []*arrival {
	remaining := make([]int, in.tenantCount())
	total := 0
	for ti := range remaining {
		remaining[ti] = in.cfg.Arrivals
		if in.cfg.Abusive && ti == in.cfg.Tenants {
			remaining[ti] = 2 * in.cfg.Arrivals
		}
		total += remaining[ti]
	}
	out := make([]*arrival, 0, total)
	for len(out) < total {
		pick := in.rng.Intn(total - len(out))
		for ti := range remaining {
			if pick < remaining[ti] {
				remaining[ti]--
				out = append(out, &arrival{tenant: ti, seq: in.seqs[ti]})
				in.seqs[ti]++
				break
			}
			pick -= remaining[ti]
		}
	}
	return out
}

// runRound drives one traffic round: reinstall dark ports, generate
// arrivals, admission-gate and connect them from a driver process, run
// to quiescence (containing any injected panics), classify every
// arrival, reap the round's connections, fold the supervisor ledger
// into the tenant registry, and commit the round ledger line with a
// durable checkpoint.
func (in *instance) runRound(round int) {
	in.installMissing()
	arrivals := in.genArrivals()
	// The open-loop driver retries after a contained panic: a recovery
	// kills every thread and rewinds to the last checkpoint, so
	// requests in flight at the crash are lost (classified failed), but
	// the arrivals the driver never reached are re-driven by a fresh
	// process — bounded, so a pathological seed cannot livelock the
	// round. Everything here is deterministic: the arrival list, the
	// admission sequence and the panic schedule all derive from the
	// instance seed.
	next := 0
	for attempt := 0; attempt < 4 && next < len(arrivals); attempt++ {
		start := next
		in.procSeq++
		in.k.SpawnProcess(fmt.Sprintf("driver-%d", in.procSeq), 1, func(p *kernel.Process) {
			for i := start; i < len(arrivals); i++ {
				a := arrivals[i]
				next = i + 1
				a.reached = true
				a.admitted = in.treg.Admit(tenantName(in.cfg, a.tenant), a.seq)
				if !a.admitted {
					continue
				}
				c, err := in.n.Connect(in.k.Sched, "tcp", in.port(a.tenant), []byte("GET / HTTP/1.0\r\n\r\n"))
				if err != nil {
					var le *resource.LimitError
					if errors.As(err, &le) {
						a.denied = true
					} else {
						in.violate("round %d connect %s: %v", round, tenantName(in.cfg, a.tenant), err)
					}
					continue
				}
				a.conn = c
				for y := 0; y < 8 && !c.Closed(); y++ {
					p.Thread.Yield()
				}
			}
		})
		recovered, err := in.k.RunRecovered()
		in.res.Recovered += recovered
		if err != nil {
			// An uncontainable panic: the machine is gone. Replace it
			// from the durable ring; the round's in-flight work is lost.
			in.replace(round)
			break
		}
		if recovered == 0 {
			break
		}
	}

	var served, shed, failed int64
	for _, a := range arrivals {
		cell := in.cells[a.tenant]
		switch {
		case a.reached && !a.admitted, a.denied:
			shed++
			cell.Shed++
		case a.conn != nil && a.conn.Closed() && len(a.conn.Response()) > 0:
			served++
			cell.Served++
		default:
			// Aborted handlers, dark (expelled) ports, requests the
			// crash destroyed before the driver reached them.
			failed++
			cell.Failed++
		}
		if a.conn != nil {
			in.n.Teardown(a.conn)
		}
	}
	in.res.Served += served
	in.res.Shed += shed
	in.res.Failed += failed

	if in.k.Guard != nil {
		in.treg.Observe(in.k.Guard.Report())
	}
	line := fmt.Sprintf("fleet inst %d round %d: served=%d shed=%d failed=%d",
		in.id, round, served, shed, failed)
	in.k.Logf("%s", line)
	in.checkpoint(fmt.Sprintf("round %d", round))
	// The line is on the books only once the checkpoint that contains
	// it persisted; the audit holds the final log to exactly this set.
	in.committed = append(in.committed, line)
}

// checkpoint takes a durable checkpoint and surfaces persistence
// failures as audit violations.
func (in *instance) checkpoint(stage string) {
	in.k.Checkpoint()
	if err := in.k.Crash.PersistErr(); err != nil {
		in.violate("%s: persist: %v", stage, err)
	}
}

// replace is the self-healing path: the instance's kernel is abandoned
// where it stands and a fresh one is rebooted from the durable
// checkpoint ring. The tenant registry survives in the fleet layer —
// standing and billing carry over, Reattach splices the live tenant
// accounts into the restored grafts, and EpochReset re-baselines the
// ledger deltas against the replacement's fresh supervisor. The
// replacement's first checkpoint comes only after Reattach, so a
// recovery rewinds charges on the tenants' own accounts.
func (in *instance) replace(round int) {
	in.k.Shutdown()
	in.boot()
	if _, err := in.k.RestoreFromDisk(); err != nil {
		in.violate("round %d replacement: restore: %v", round, err)
		return
	}
	in.res.Reattached += in.treg.Reattach(in.k.Grafts)
	in.checkpoint(fmt.Sprintf("round %d replacement", round))
	in.treg.EpochReset()
	in.res.Replacements++
	if in.k.Faults != nil {
		in.k.Faults.EnableCrash()
	}
	// No lost committed writes: every round line committed before the
	// death must be in the restored log.
	log := strings.Join(in.k.Log(), "\n")
	for _, line := range in.committed {
		if !strings.Contains(log, line) {
			in.violate("round %d replacement: committed line lost: %q", round, line)
		}
	}
}

// audit closes the instance's books: request conservation, durable
// ledger completeness, and drained tenant accounts (charges released at
// teardown land on the owning tenant and nowhere else — a residual
// here is either a leak or cross-tenant billing).
func (in *instance) audit() {
	var acc int64
	for _, c := range in.cells {
		acc += c.Served + c.Shed + c.Failed
	}
	perTenant := int64(in.cfg.Arrivals * in.cfg.Rounds)
	want := perTenant * int64(in.cfg.Tenants)
	if in.cfg.Abusive {
		want += 2 * perTenant
	}
	if acc != want {
		in.violate("request conservation: %d generated, %d accounted", want, acc)
	}
	log := strings.Join(in.k.Log(), "\n")
	for _, line := range in.committed {
		if !strings.Contains(log, line) {
			in.violate("committed line lost: %q", line)
		}
	}
	for _, t := range in.treg.Tenants() {
		for _, kind := range t.Account.Kinds() {
			if used := t.Account.Used(kind); used != 0 {
				in.violate("tenant %s account not drained: %s=%d", t.Name, kind, used)
			}
		}
	}
}

// Summary renders the fleet report: per-instance rows, the per-tenant ×
// per-instance table, totals and the audit verdict. Deterministic for a
// fixed configuration at any worker-pool size.
func (r *Result) Summary() string {
	var b strings.Builder
	nt := r.Cfg.Tenants
	if r.Cfg.Abusive {
		nt++
	}
	// No worker count here: the report is byte-identical at any
	// worker-pool size, and printing the pool would break exactly the
	// comparison that proves it.
	fmt.Fprintf(&b, "fleet: %d instances x %d rounds, %d tenants, seed %d\n",
		r.Cfg.Instances, r.Cfg.Rounds, nt, r.Cfg.Seed)
	fmt.Fprintf(&b, "  %4s %6s %5s %6s %7s %6s %7s %7s %6s %5s\n",
		"INST", "ROUNDS", "REPL", "RECOV", "SERVED", "SHED", "FAILED", "DENIED", "EXPEL", "REBIND")
	for _, ir := range r.Instances {
		fmt.Fprintf(&b, "  %4d %6d %5d %6d %7d %6d %7d %7d %6d %5d\n",
			ir.ID, ir.Rounds, ir.Replacements, ir.Recovered, ir.Served, ir.Shed,
			ir.Failed, ir.SocketDenials, ir.Expulsions, ir.Reattached)
	}
	fmt.Fprintf(&b, "tenant x instance:\n")
	fmt.Fprintf(&b, "  %-12s %4s %-9s %7s %6s %7s %5s\n",
		"TENANT", "INST", "STATE", "SERVED", "SHED", "FAILED", "EXPEL")
	for _, ir := range r.Instances {
		state := make(map[string]tenant.Health, len(ir.Tenants))
		for _, h := range ir.Tenants {
			state[h.Name] = h
		}
		for _, c := range ir.PerTenant {
			h := state[c.Name]
			fmt.Fprintf(&b, "  %-12s %4d %-9s %7d %6d %7d %5d\n",
				c.Name, ir.ID, h.State, c.Served, c.Shed, c.Failed, h.Expulsions)
		}
	}
	fmt.Fprintf(&b, "totals: arrivals=%d served=%d shed=%d failed=%d\n",
		r.Arrivals, r.Served, r.Shed, r.Failed)
	if r.Clean() {
		fmt.Fprintf(&b, "audit: clean\n")
	} else {
		fmt.Fprintf(&b, "audit: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}
