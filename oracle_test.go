package dstore

// The crash oracle: DIPPER's recovery claim — a crash at any instant of the
// append protocol, the log swap or the shadow replay recovers exactly the
// acknowledged operations (PAPER.md §3.4–3.6) — stated once and checked over
// every store shape. A script drives a store and records what it asked for in
// a model; a fault interrupts it; the shape recovers; and one verdict decides:
// the store passes Check() and holds what some prefix of the script's units
// leaves, no shorter than the acknowledged prefix and no longer than the issued
// one. Every sweep is a row of oracleRows (DESIGN.md §5).

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dstore/internal/fault"
	"dstore/internal/pmem"
)

// writes is what one atomic unit does to the key space: key → new value, nil
// for a delete. A put or delete is a unit of one key, a transaction a unit of
// its whole write set, an MPUT/MDELETE one unit per sub-op.
type writes map[string][]byte

func put(k string, v []byte) writes { return writes{k: append([]byte{}, v...)} }
func del(k string) writes           { return writes{k: nil} }

type unit struct {
	w     writes
	maybe bool   // failed on a fault path and the script went on: applied or not
	lsn   uint64 // its store's last LSN once acknowledged (a replicated row's primary)
}

// model is the reference a store is judged against: the units a script issued,
// in order, and how many of them were acknowledged.
type model struct {
	units         []unit
	acked, issued int
	lastLSN       func() uint64 // on a primary: do stamps each unit with it
	ackedLSN      uint64        // set by pump: the last record whose apply returned
}

// modelOf is the model of a store known to hold exactly kv.
func modelOf(kv map[string][]byte) *model { return &model{units: []unit{{w: kv}}, acked: 1, issued: 1} }

// do issues ws, runs op and acknowledges them if it succeeds (a delete's
// ErrNotFound counts). A panic — the injected crash — leaves them in flight.
func (m *model) do(op func() error, ws ...writes) error {
	for _, w := range ws {
		m.units = append(m.units, unit{w: w})
	}
	m.issued = len(m.units)
	if err := op(); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	for i := m.acked; i < m.issued && m.lastLSN != nil; i++ {
		m.units[i].lsn = m.lastLSN()
	}
	m.acked = m.issued
	return nil
}

// fail settles the units of a do that failed as indeterminate — a faulted
// write landed or it did not — and lets the script go on.
func (m *model) fail() {
	for i := m.acked; i < m.issued; i++ {
		m.units[i].maybe = true
	}
	m.acked = m.issued
}

// retract drops them: the store refused the write and none of it may be seen.
func (m *model) retract() { m.units, m.issued = m.units[:m.acked], m.acked }

// acceptSet maps a key to the values a store may hold for it; a nil value
// means absence is acceptable, and a missing key that only absence is.
type acceptSet map[string][][]byte

func (a acceptSet) apply(us []unit) acceptSet {
	for _, u := range us {
		for k, v := range u.w {
			switch _, seen := a[k]; {
			case !u.maybe:
				a[k] = [][]byte{v}
			case !seen:
				a[k] = [][]byte{nil, v}
			default:
				a[k] = append(slices.Clip(a[k]), v) // clones share backing arrays
			}
		}
	}
	return a
}

func (a acceptSet) allows(k string, got []byte) bool {
	vals, ok := a[k]
	if !ok {
		return got == nil
	}
	return slices.ContainsFunc(vals, func(v []byte) bool { return (got == nil) == (v == nil) && bytes.Equal(got, v) })
}

// matches reports whether a allows got, and if not the first key it does not.
func (a acceptSet) matches(got map[string][]byte) (string, bool) {
	for k := range a {
		if !a.allows(k, got[k]) {
			return k, false
		}
	}
	for k := range got {
		if _, ok := a[k]; !ok {
			return k, false
		}
	}
	return "", true
}

// allows reports whether a read of k may return got (nil: not found) now.
func (m *model) allows(k string, got []byte) bool {
	return acceptSet{}.apply(m.units[:m.issued]).allows(k, got)
}

// accepts is the contents half of the verdict: got is what the acknowledged
// units leave plus a prefix of the units in flight. Units in flight on
// different shards (lane is the key's owner) are unordered — one MPUT's
// sub-ops reach a shard in issue order but the shards in any — so the prefix
// is per lane; on a bare store it is one j with acked ≤ j ≤ issued.
func (m *model) accepts(got map[string][]byte, lane func(key string) int) error {
	byLane := map[int][]unit{}
	for _, u := range m.units[m.acked:m.issued] {
		for k := range u.w {
			byLane[lane(k)] = append(byLane[lane(k)], u)
			break
		}
	}
	var try func(a acceptSet, lanes [][]unit) bool
	try = func(a acceptSet, lanes [][]unit) bool {
		if len(lanes) == 0 {
			_, ok := a.matches(got)
			return ok
		}
		for j := range len(lanes[0]) + 1 {
			if try(maps.Clone(a).apply(lanes[0][:j]), lanes[1:]) {
				return true
			}
		}
		return false
	}
	base := acceptSet{}.apply(m.units[:m.acked])
	if try(base, slices.Collect(maps.Values(byLane))) {
		return nil
	}
	k, _ := base.matches(got)
	return fmt.Errorf("contents match no prefix of the script between its %d acknowledged and %d issued units (against the acknowledged ones, first at key %q: %d bytes held)",
		m.acked, m.issued, k, len(got[k]))
}

// read puts a Get's result in the model's terms: nil for ErrNotFound.
func read(v []byte, err error) ([]byte, error) {
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	return append([]byte{}, v...), err
}

// contents reads a store's whole user-visible key space through its routed
// surface: an ordered, duplicate-free Scan and a Get of every name it yields.
func contents(api API) (map[string][]byte, error) {
	c := api.NewContext()
	defer c.Finalize()
	var names []string
	if err := c.Scan("", func(info ObjectInfo) bool {
		names = append(names, info.Name)
		return true
	}); err != nil {
		return nil, fmt.Errorf("Scan: %w", err)
	}
	got := make(map[string][]byte, len(names))
	for _, k := range names {
		v, err := read(c.Get(k, nil))
		if err != nil || v == nil {
			return nil, fmt.Errorf("Get(%s) of a scanned name: %d bytes, %v", k, len(v), err)
		}
		got[k] = v
	}
	if sorted := slices.IsSorted(names); len(got) != len(names) || !sorted {
		return nil, fmt.Errorf("Scan yielded %d names, %d distinct, sorted=%v", len(names), len(got), sorted)
	}
	return got, nil
}

// verdict is the one judgement of a store against a model: fsck passes, the
// model accepts the contents, and the members' own object counts add up to the
// routed scan's — a key resident on two members (migration residue), which
// routing hides, or on the wrong one fails that.
func verdict(api API, m *model) error {
	if err := api.Check(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	got, err := contents(api)
	if err != nil {
		return err
	}
	var count uint64
	for _, s := range members(api) {
		count += s.userCount()
	}
	if count != uint64(len(got)) {
		return fmt.Errorf("store counts %d objects, scan found %d", count, len(got))
	}
	if sh, ok := api.(*Sharded); ok {
		return m.accepts(got, sh.ShardFor)
	}
	return m.accepts(got, func(string) int { return 0 })
}

const crashSentinel = "injected crash point"

// runToCrash runs fn with the devices' mutation hooks armed to panic at the
// crashAt-th mutation (one counter across them — a row drives its store from
// one goroutine, so the order is deterministic; 0 never fires) and reports how
// many it saw and whether the crash fired. A fired crash leaves the incarnation
// abandoned mid-operation, so stop — its CloseNoCheckpoint — runs before the
// return: it takes no lock the panicked operation can still hold (the deferred
// unlocks ran as the panic unwound) and retires the checkpoint goroutine and
// batch workers, which would otherwise pin the devices (~32 MB each) for the
// life of the process and could keep mutating the PMEM about to be recovered.
func runToCrash(pms []*pmem.Device, crashAt uint64, stop func() error, fn func()) (seen uint64, crashed bool) {
	armed := true
	for _, pm := range pms {
		pm.SetMutationHook(func() {
			if !armed {
				return
			}
			if seen++; seen == crashAt {
				armed = false
				panic(crashSentinel)
			}
		})
	}
	defer func() {
		for _, pm := range pms {
			pm.SetMutationHook(nil)
		}
		if r := recover(); r != nil {
			if r != crashSentinel {
				panic(r)
			}
			crashed = true
			stop() //nolint:errcheck // abandoning the incarnation; the reopen is the verdict
		}
	}()
	fn()
	return
}

// point is where a row's fault strikes: the k-th PMEM mutation of the script,
// or the k-th arrival of a membership change at phase. The zero point lets the
// script finish — its mutation count sizes the sweep — and cuts power with
// every engine parked in its worst-case checkpoint window (logs swapped, replay
// not begun).
type point struct {
	k     uint64
	phase string
}

func (p point) String() string {
	if p.phase != "" && p.k == 0 {
		return p.phase
	}
	return fmt.Sprintf("%s@%d", p.phase, p.k)
}

// rig is one store under test and what its row's functions share about it.
type rig struct {
	t        *testing.T
	api      API
	cfg      Config
	m        *model
	at       point
	keys     []string // the key set a preload laid down
	primary  *Store   // replicated rows: the frozen source of the standby's stream
	seen     uint64   // PMEM mutations the fault counted
	verified int
}

func (u *rig) ctx() Context { return u.api.NewContext() }

// play runs scripts on api outside any trial and returns the rig they ran on,
// its model stamped with LSNs when api is one store.
func play(t *testing.T, api API, scripts ...func(u *rig) error) *rig {
	t.Helper()
	u := &rig{t: t, api: api, m: &model{}}
	if s, ok := api.(*Store); ok {
		u.m.lastLSN = s.LastLSN
	}
	for _, script := range scripts {
		if script != nil {
			if err := script(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return u
}

// judge fails t, naming where, unless api passes the verdict against m.
func judge(t *testing.T, where string, api API, m *model) {
	t.Helper()
	if err := verdict(api, m); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// check judges the store as it stands: the trial after recovery, a script
// where points of its row lie inside one run.
func (u *rig) check() {
	u.t.Helper()
	judge(u.t, u.at.String(), u.api, u.m)
	u.verified++
}

// checkpoint checkpoints every member on this goroutine (API.CheckpointNow
// fans a ring out to goroutines, where an armed hook's panic is fatal).
func (u *rig) checkpoint() error {
	for _, s := range members(u.api) {
		if err := s.CheckpointNow(); err != nil {
			return err
		}
	}
	return nil
}

// configs returns each member's configuration with its devices attached.
func (u *rig) configs() []Config {
	cfgs := []Config{u.cfg}
	if sh, ok := u.api.(*Sharded); ok {
		cfgs = sh.ShardConfigs()
	}
	for i, s := range members(u.api) {
		cfgs[i].PMEM, cfgs[i].SSD = s.Devices()
	}
	return cfgs
}

// shape is one way to stand a store up, break it and bring it back.
type shape struct {
	build func(cfg Config) (API, error)
	// fault strikes at p while run drives the store and reports whether it
	// fired; nil runs the script undisturbed.
	fault func(u *rig, p point, run func() error) (fired bool, err error)
	// recover returns what serves after the fault; nil when the struck store
	// itself keeps serving.
	recover func(u *rig, p point) (API, error)
}

// asAPI keeps a failed constructor's typed nil out of the interface.
func asAPI[T API](s T, err error) (API, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// powerLoss panics out of the script at the p.k-th PMEM mutation on any member
// and stops the abandoned incarnation.
func powerLoss(u *rig, p point, run func() error) (fired bool, err error) {
	var pms []*pmem.Device
	for _, s := range members(u.api) {
		pm, _ := s.Devices()
		pms = append(pms, pm)
	}
	if u.seen, fired = runToCrash(pms, p.k, u.api.CloseNoCheckpoint, func() { err = run() }); fired || err != nil || p.k != 0 {
		return fired, err // a cut past the end of this run did not fire
	}
	for _, s := range members(u.api) {
		s.PrepareWorstCaseCrash()
	}
	return true, u.api.CloseNoCheckpoint()
}

// repower reverts every unflushed line of every member's PMEM — the
// adversarial outcome of a power cut — and reopens: Open for a bare store,
// OpenSharded (transaction resolution, ring recovery, residue cleanup) for a ring.
func repower(u *rig, p point) (API, error) {
	cfgs := u.configs()
	for i := range cfgs {
		if err := cfgs[i].PMEM.Crash(pmem.CrashDropDirty, int64(p.k)+int64(i)); err != nil {
			return nil, err
		}
	}
	if _, ok := u.api.(*Store); ok {
		return asAPI(Open(cfgs[0]))
	}
	return asAPI(OpenSharded(cfgs))
}

var errFrozen = errors.New("frozen for crash")

// freeze abandons a membership change at its p.k-th arrival at p.phase, as if
// the process died there, ahead of the power cut.
func freeze(u *rig, p point, run func() error) (bool, error) {
	var seen uint64
	u.api.(*Sharded).reshardHook = func(phase, _ string) error {
		if phase != p.phase {
			return nil
		}
		if seen++; seen < p.k {
			return nil
		}
		return errFrozen
	}
	if err := run(); !errors.Is(err, errFrozen) {
		return false, fmt.Errorf("membership change: %v, want frozen", err)
	}
	return true, u.api.CloseNoCheckpoint()
}

// kill fails every write to the victim shard's primary from its p.k-th PMEM
// mutation on, once the standbys have caught up with the preload. The commit
// under way may then fail and yet be decided; the verdict says what either
// outcome must have left, so only an undisturbed script's error counts.
func kill(u *rig, p point, run func() error) (bool, error) {
	sh := u.api.(*Sharded)
	waitReplDrained(u.t, sh)
	pm, _ := sh.Replica(victim).Active().Devices()
	pm.SetMutationHook(func() {
		if u.seen++; u.seen == p.k {
			pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: int64(p.k), WriteErrRate: 1}))
		}
	})
	err := run()
	pm.SetMutationHook(nil)
	if p.k != 0 {
		err = nil
	}
	return u.seen >= p.k, err
}

const victim = 1                 // the 2PC participant; the coordinator is the lowest write shard
const everyMutation = ^uint64(0) // as a row's cuts: strike at each mutation of the clean run

// bare is one store and ringOf(n) a ring of n, power lost on every member;
// reshardRing a ring of three whose membership change freezes first;
// failoverPair a replicated ring of two whose recovery is its own — the
// standby is promoted under the running script and the same ring keeps serving.
var (
	bare         = shape{func(c Config) (API, error) { return asAPI(Format(c)) }, powerLoss, repower}
	reshardRing  = shape{ringOf(3).build, freeze, repower}
	failoverPair = shape{func(c Config) (API, error) { return asAPI(FormatShardedReplicated(2, c)) }, kill, nil}
)

func ringOf(n int) shape {
	return shape{func(c Config) (API, error) { return asAPI(FormatSharded(n, c)) }, powerLoss, repower}
}

// row is one scenario: a script on a shape, where its fault strikes, and what
// it asserts beyond the verdict. A replicated row's preload and script run
// once, on a primary; each trial's store is a fresh standby and its script the
// pump of that primary's committed stream.
type row struct {
	name       string
	shape      shape
	cfg        Config
	replicated bool
	preload    func(u *rig) error // laid down before the fault is armed
	script     func(u *rig) error
	cuts       uint64             // strike at the zero point and at every (mutations/cuts)-th mutation
	at         []point            // and at these
	after      func(u *rig) error // on the recovered store, after the verdict
}

func (r row) run(t *testing.T) {
	if r.cuts > 0 {
		// Hooks get armed: every PMEM mutation must happen on this goroutine,
		// so a batch's fan-out is pinned to its caller.
		defer func(w int) { mopWorkers = w }(mopWorkers)
		mopWorkers = 1
	}
	if r.replicated {
		r.cfg.TrackPersistence = true // the standby's PMEM is power-failed; replTestConfig leaves tracking off
		p, err := Format(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pu := play(t, p, r.preload, r.script)
		r.preload = func(u *rig) error {
			u.api.(*Store).BeginStandby()
			u.primary, u.keys, u.m.units = p, pu.keys, pu.m.units
			return nil
		}
		r.script = func(u *rig) error { return pump(p, u.api.(*Store), u.m) }
	}
	points, total, verified := r.at, uint64(0), 0
	if r.cuts > 0 {
		u := r.trial(t, point{})
		total, verified = u.seen, u.verified
		for k := uint64(1); k <= total; k += max(total/r.cuts, 1) {
			points = append(points, point{k: k})
		}
	}
	for _, p := range points {
		if p.phase != "" {
			t.Run(p.String(), func(t *testing.T) { verified += r.trial(t, p).verified })
		} else {
			verified += r.trial(t, p).verified
		}
	}
	t.Logf("row %s: verified %d points across %d mutations", r.name, verified, total)
}

// trial is one point: build, preload, run the script into the fault, recover,
// judge. It verifies no point when the cut fell past the end of the run, and
// several when the script checks as it goes.
func (r row) trial(t *testing.T, p point) *rig {
	t.Helper()
	api, err := r.shape.build(r.cfg)
	if err != nil {
		t.Fatalf("%s: build: %v", p, err)
	}
	u := &rig{t: t, api: api, cfg: r.cfg, m: &model{}, at: p}
	defer func() { u.api.CloseNoCheckpoint() }() //nolint:errcheck // teardown
	if r.preload != nil {
		if err := r.preload(u); err != nil {
			t.Fatalf("%s: preload: %v", p, err)
		}
	}
	run, fired := func() error { return r.script(u) }, true
	if r.shape.fault != nil {
		fired, err = r.shape.fault(u, p, run)
	} else {
		err = run()
	}
	if err != nil {
		t.Fatalf("%s: script: %v", p, err)
	}
	if !fired {
		return u
	}
	if r.shape.recover != nil {
		if api, err = r.shape.recover(u, p); err != nil {
			t.Fatalf("%s: recovery: %v", p, err)
		}
		u.api = api
	}
	u.check()
	if r.after != nil {
		if err := r.after(u); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return u
}

// sweepConfig is a store whose small log makes a sweep cross checkpoints. The
// threshold keeps them off the checkpoint goroutine — a log-full checkpoint
// runs inline — so every mutation happens on the script's goroutine and the
// k-th is the same one in every run.
func sweepConfig(blocks, objects, logBytes uint64) Config {
	return Config{Blocks: blocks, MaxObjects: objects, LogBytes: logBytes, CheckpointThreshold: 1e-9, TrackPersistence: true}
}

var reshardPhases = []point{{phase: "pre-copy"}, {1, "copy"}, {17, "copy"}, {60, "copy"}, {phase: "pre-flip"}, {phase: "post-flip"}}

// oracleRows is every crash scenario of the package. A new one is a new row:
// pick a shape, write (or reuse) a script that records its units with model.do,
// say where the fault strikes, and put what the scenario promises beyond the
// verdict in after. analysis/crashpoints.floor holds each row's point count.
var oracleRows = []row{
	{name: "plain", shape: bare, cfg: sweepConfig(2048, 512, 1<<14), script: mixed(plainMix), cuts: 110},
	{name: "txn", shape: bare, cfg: sweepConfig(4096, 1024, 1<<14),
		preload: seed(eightKeys, hashTag), script: rmw(40, []int{0, 3, 5}, hashTag, true), cuts: 100},
	{name: "batch", shape: bare, cfg: sweepConfig(2048, 512, 1<<14), script: batches, cuts: 110},
	{name: "2pc", shape: ringOf(3), cfg: shardedTxnConfig(),
		preload: seed(crossShard, atTag), script: rmw(25, []int{0, 1, 2, 3}, atTag, true), cuts: 61, after: resolved},
	{name: "standby", shape: bare, cfg: replTestConfig(), replicated: true,
		script: mixed(standbyMix), cuts: 23, after: promoted(true)},
	{name: "standby-txn", shape: bare, cfg: replTestConfig(), replicated: true,
		preload: seed(eightKeys, hashTag), script: rmw(40, []int{0, 3, 5}, hashTag, true), cuts: 29, after: promoted(false)},
	{name: "2pc-failover", shape: failoverPair, cfg: replTestConfig(),
		preload: seed(twoPerShard, atTag), script: rmw(1, []int{0, 1, 2, 3}, atTag, false), cuts: everyMutation, after: failedOver},
	{name: "reshard/add", shape: reshardRing, cfg: shardTestConfig(), preload: keyspace(120),
		script: func(u *rig) error { _, err := u.api.(*Sharded).AddShard(); return err },
		at:     reshardPhases, after: resharded},
	{name: "reshard/remove", shape: reshardRing, cfg: shardTestConfig(), preload: keyspace(120),
		script: func(u *rig) error { return u.api.(*Sharded).RemoveShard(1) },
		at:     reshardPhases, after: resharded},
	{name: "ring-plain", shape: ringOf(2), cfg: sweepConfig(4096, 1024, 1<<14), script: mixed(plainMix), cuts: 31},
	{name: "ring-batch", shape: ringOf(2), cfg: sweepConfig(4096, 1024, 1<<14), script: batches, cuts: 32},
	{name: "churn", shape: shape{build: bare.build}, cfg: Config{Blocks: 1024, MaxObjects: 256, LogBytes: 1 << 16},
		script: churn(64), at: []point{{}}},
	{name: "catchup", shape: bare, cfg: sweepConfig(2048, 24, 1<<14), script: catchUp, cuts: 97},
}

func TestCrashOracle(t *testing.T) {
	for _, r := range oracleRows {
		t.Run(r.name, r.run)
	}
}

// mix is a single-key put/delete script: op i touches key i%keys, deleting it
// when i%delEvery == delAt and otherwise writing size+i*grow bytes of i+1.
type mix struct {
	ops, keys, delEvery, delAt, size, grow int
	checkpoint                             bool // end with one
}

var (
	plainMix   = mix{ops: 120, keys: 17, delEvery: 5, delAt: 4, size: 500, grow: 13, checkpoint: true}
	standbyMix = mix{ops: 60, keys: 23, delEvery: 7, delAt: 5, size: 300, grow: 31}
)

func mixed(x mix) func(u *rig) error {
	return func(u *rig) error {
		c := u.ctx()
		for i := 0; i < x.ops; i++ {
			k, v := fmt.Sprintf("k%02d", i%x.keys), bytes.Repeat([]byte{byte(i + 1)}, x.size+i*x.grow)
			op, w := func() error { return c.Put(k, v) }, put(k, v)
			if i%x.delEvery == x.delAt {
				op, w = func() error { return c.Delete(k) }, del(k)
			}
			if err := u.m.do(op, w); err != nil {
				return fmt.Errorf("op %d (%s): %w", i, k, err)
			}
		}
		if x.checkpoint {
			return u.checkpoint()
		}
		return nil
	}
}

// seed preloads the keys pick chooses, each at its tag-0 value.
func seed(pick func(u *rig) []string, tag func(k string, i int) []byte) func(u *rig) error {
	return func(u *rig) error {
		u.keys = pick(u)
		c := u.ctx()
		for _, k := range u.keys {
			if err := u.m.do(func() error { return c.Put(k, tag(k, 0)) }, put(k, tag(k, 0))); err != nil {
				return err
			}
		}
		return nil
	}
}

func eightKeys(*rig) []string { return []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"} }

// crossShard picks four keys that span shards.
func crossShard(u *rig) []string { return crossShardKeys(u.t, u.api.(*Sharded), 4, 7) }

// twoPerShard picks two keys on each shard of a ring of two: the victim's
// second olock then sits past its first, where the standby's log holds the
// body of another record.
func twoPerShard(u *rig) (keys []string) {
	perShard := map[int]int{}
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("fo-%d", i)
		if owner := u.api.(*Sharded).ShardFor(k); perShard[owner] < 2 {
			perShard[owner]++
			keys = append(keys, k)
		}
	}
	return keys
}

func hashTag(k string, i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("%s#%03d|", k, i)), 20) }
func atTag(k string, i int) []byte   { return []byte(fmt.Sprintf("%s@%03d", k, i)) }

// rmw runs n sequential transactions: transaction i rewrites the preloaded
// keys at offsets offs from i — reading them first when reads is set, so the
// commit carries a read set — and on a ring spans shards. One transaction is
// one unit: no fault may expose some of its keys new and others old.
func rmw(n int, offs []int, tag func(k string, i int) []byte, reads bool) func(u *rig) error {
	return func(u *rig) error {
		c := u.ctx()
		for i := 1; i <= n; i++ {
			w := writes{}
			for _, off := range offs {
				k := u.keys[(i+off)%len(u.keys)]
				w[k] = tag(k, i)
			}
			if err := u.m.do(func() error {
				txn, err := c.Begin()
				for k, v := range w {
					if err == nil && reads {
						_, err = txn.Get(k, nil)
					}
					if err == nil {
						err = txn.Put(k, v)
					}
				}
				if err != nil {
					return err
				}
				return txn.Commit()
			}, w); err != nil {
				return fmt.Errorf("txn %d: %w", i, err)
			}
		}
		return nil
	}
}

// batches drives MPUT and MDELETE frames of 2–7 sub-ops over 13 keys and ends
// with a checkpoint. A batch is not atomic but a sub-op is, one unit each: with
// the fan-out pinned to its caller they apply in issue order, so nothing later
// survives without everything earlier. Group commit must have carried them.
func batches(u *rig) error {
	seq := 0
	for round := 0; round < 14; round++ {
		mdel, n := round%4 == 3, 3+round%5
		if mdel {
			n = 2
		}
		keys, vals, ws := make([]string, n), make([][]byte, n), make([]writes, n)
		for j := range keys {
			keys[j] = fmt.Sprintf("b%02d", seq%13)
			if ws[j] = del(keys[j]); !mdel {
				vals[j] = bytes.Repeat([]byte{byte(seq%250 + 1)}, 400+seq*11)
				ws[j] = put(keys[j], vals[j])
			}
			seq++
		}
		if err := u.m.do(func() error {
			if mdel {
				return errors.Join(u.api.MDelete(0, keys)...)
			}
			return errors.Join(u.api.MPut(0, keys, vals)...)
		}, ws...); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	if u.api.Stats().Engine.GCBatches == 0 {
		return errors.New("the batches did not go through group commit")
	}
	return u.checkpoint()
}

// catchUp crosses four checkpoints, each replaying a different mix, so every
// checkpoint after the first copies lines into its generation (the ones the
// last replay wrote) that its own replay does not rewrite: a copied line left
// unflushed is lost at a power cut while its generation is current. The mix:
// hot keys overwritten again and again (replay skips all but the last put to
// a slot), a delete and a re-create in another slot, a new name in the freed
// slot, an in-place WriteAt, an extend and a transaction.
func catchUp(u *rig) error {
	s := u.api.(*Store)
	c := s.Init()
	val := func(k string, i, n int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("%s.%d|", k, i)), n) }
	putKey := func(k string, v []byte) func() error {
		return func() error { return u.m.do(func() error { return c.Put(k, v) }, put(k, v)) }
	}
	hot := func(round int) func() error {
		return func() error {
			for i := 0; i < 9; i++ {
				k := fmt.Sprintf("hot%d", i%3)
				if err := putKey(k, val(k, 10*round+i, 20))(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	writeAt := func(k string, p []byte, off int64, after []byte) func() error {
		return func() error {
			o, err := c.Open(k, 0, OpenRead|OpenWrite)
			if err != nil {
				return err
			}
			return u.m.do(func() error { _, err := o.WriteAt(p, off); return err }, put(k, after))
		}
	}
	slotOf := func(k string) uint64 {
		s.treeMu.RLock()
		defer s.treeMu.RUnlock()
		slot, _ := s.front.tree.Get([]byte(k))
		return slot
	}
	seq := func(steps ...func() error) error {
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}
	// Round 1: ten cold keys, and the hot keys.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("cold%d", i)
		if err := putKey(k, val(k, 0, 30))(); err != nil {
			return err
		}
	}
	if err := seq(hot(1), u.checkpoint); err != nil {
		return err
	}
	// Round 2: cold3 moves to another slot, and a new name takes its old one.
	freed := slotOf("cold3")
	delCold3 := func() error { return u.m.do(func() error { return c.Delete("cold3") }, del("cold3")) }
	if err := seq(hot(2), delCold3, putKey("cold3", val("cold3", 2, 30))); err != nil {
		return err
	}
	if slotOf("cold3") == freed {
		return errors.New("cold3 was re-created in its old slot")
	}
	for i := 0; ; i++ {
		k := fmt.Sprintf("new%d", i)
		if err := putKey(k, val(k, 2, 10))(); err != nil {
			return err
		}
		if slotOf(k) == freed {
			break
		}
		if i == 20 {
			return errors.New("no new name took the freed slot")
		}
	}
	if err := u.checkpoint(); err != nil {
		return err
	}
	// Round 3: an in-place WriteAt, an extend, and one transaction.
	in, grown := val("cold5", 0, 30), append(val("cold6", 0, 30), val("cold6", 3, 700)...)
	copy(in[10:], "in place")
	w := writes{"hot1": val("hot1", 33, 40), "cold7": nil, "cold8": val("cold8", 3, 50)}
	txn := func() error {
		return u.m.do(func() error {
			txn, err := c.Begin()
			for k, v := range w {
				if err == nil && v == nil {
					err = txn.Delete(k)
				} else if err == nil {
					err = txn.Put(k, v)
				}
			}
			if err != nil {
				return err
			}
			return txn.Commit()
		}, w)
	}
	// Round 4: the hot keys and one cold overwrite.
	return seq(writeAt("cold5", []byte("in place"), 10, in), writeAt("cold6", grown[240:], 240, grown), txn, hot(3), u.checkpoint,
		hot(4), putKey("cold9", val("cold9", 4, 30)), u.checkpoint)
}

// churn is the pool-phase window's scenario (write.go, appendSet): eight
// writers put and delete the same four names in step, so same-name writers
// keep meeting between one's index read and its append. Each round is a point:
// the store passes fsck (the defect left used slots nothing reached and leaked
// blocks) and holds, for each name, the last thing some writer did to it —
// whatever order the store serialised them in.
func churn(rounds int) func(u *rig) error {
	return func(u *rig) error {
		for round := 0; round < rounds; round++ {
			if round > 0 {
				u.check() // the last round's check is the trial's own
			}
			var ms [8]model
			var errs [len(ms)]error
			var wg sync.WaitGroup
			for g := range ms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x := mix{ops: 200, keys: 4, delEvery: 3, delAt: (g + round) % 3, size: 4000 + g}
					errs[g] = mixed(x)(&rig{api: u.api, m: &ms[g]})
				}()
			}
			wg.Wait()
			if err := errors.Join(errs[:]...); err != nil {
				return err
			}
			for g := range ms {
				last := writes{}
				for _, x := range ms[g].units {
					maps.Copy(last, x.w)
				}
				u.m.units = append(u.m.units, unit{w: last, maybe: g > 0})
			}
			u.m.acked, u.m.issued = len(u.m.units), len(u.m.units)
		}
		return nil
	}
}

// pump feeds sb the primary's committed stream from sb's applied position until
// it has caught up, moving m's marks with the LSNs: a record in flight issues
// the unit it belongs to, a record applied acknowledges every unit ending at or
// before it, and a caught-up standby has them all.
func pump(primary, sb *Store, m *model) error {
	through := func(lsn uint64) int {
		return sort.Search(len(m.units), func(i int) bool { return m.units[i].lsn > lsn })
	}
	for {
		recs, err := primary.ExportCommitted(sb.AppliedLSN(), 32)
		if err != nil || len(recs) == 0 {
			m.acked, m.issued = len(m.units), len(m.units)
			return err
		}
		for i := range recs {
			m.issued = min(through(recs[i].LSN-1)+1, len(m.units))
			if err := sb.ApplyReplicated(recs[i]); err != nil {
				return fmt.Errorf("apply LSN %d: %w", recs[i].LSN, err)
			}
			m.acked, m.ackedLSN = through(recs[i].LSN), recs[i].LSN
		}
	}
}

// keyspace preloads n keys of seeded random bytes.
func keyspace(n int) func(u *rig) error {
	return func(u *rig) error {
		rng, c := rand.New(rand.NewSource(99)), u.ctx()
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("rs/%04d", i), make([]byte, 16+rng.Intn(200))
			rng.Read(v)
			if err := u.m.do(func() error { return c.Put(k, v) }, put(k, v)); err != nil {
				return err
			}
		}
		return nil
	}
}

// resolved: OpenSharded's resolution pass left no 2PC bookkeeping behind, and
// the ring accepts a new cross-shard transaction.
func resolved(u *rig) error {
	assertNoTxnResidue(u.t, u.api.(*Sharded))
	return rmw(1, []int{0, 1, 2, 3}, atTag, false)(u)
}

// promoted: the recovered standby lost no apply that returned and invented no
// LSN past the record in flight; then — after resuming the stream from its
// recovered position, or at once, the way a failover has no stream to resume —
// it is promoted, still holds what the model says, and takes writes.
func promoted(resume bool) func(u *rig) error {
	return func(u *rig) error {
		sb := u.api.(*Store)
		if at, acked := sb.AppliedLSN(), u.m.ackedLSN; at < acked || at > acked+1 {
			return fmt.Errorf("recovered AppliedLSN %d, want %d (acked) or the record in flight", at, acked)
		}
		sb.BeginStandby()
		if resume {
			if err := pump(u.primary, sb, u.m); err != nil {
				return fmt.Errorf("resumed apply: %w", err)
			}
		}
		if err := sb.Promote(); err != nil {
			return fmt.Errorf("promote: %w", err)
		}
		judge(u.t, "promoted", sb, u.m)
		return sb.Init().Put("post-promote", []byte("writable"))
	}
}

// failedOver: when the kill took effect inside the commit the participant
// failed over (only those points count); the promoted store is then healthy
// and writable, and reopening it from its log alone — no final checkpoint —
// finds every key as the ring served it: the olocks the commit took on the
// retired primary were not settled through the promoted store's log (PR 19).
func failedOver(u *rig) error {
	sh := u.api.(*Sharded)
	if !sh.Replica(victim).FailedOver() {
		u.verified = 0
		return nil
	}
	if h := sh.Health(); h.Degraded {
		return fmt.Errorf("promoted topology degraded: %+v", h)
	}
	live := sh.store(victim)
	if err := live.Init().Put("post-failover", []byte("writable")); err != nil {
		return fmt.Errorf("write to the promoted store: %w", err)
	}
	want, err := contents(live)
	if err != nil || len(want) < 3 {
		return fmt.Errorf("promoted store serves %d keys: %v", len(want), err)
	}
	cfg := u.configs()[victim]
	if err := sh.CloseNoCheckpoint(); err != nil {
		return err
	}
	reopened, err := Open(cfg)
	if err != nil {
		return fmt.Errorf("reopen promoted store: %w", err)
	}
	defer reopened.Close() //nolint:errcheck // read-only from here
	judge(u.t, "reopened promoted store", reopened, modelOf(want))
	return nil
}

// resharded: a change frozen before the flip's persisted-ring commit point
// recovers the donor layout (epoch unchanged, an added recipient empty), one
// frozen after it the new layout.
func resharded(u *rig) error {
	sh, flipped := u.api.(*Sharded), u.at.phase == "post-flip"
	if got := sh.RingEpoch(); (got == 1) != flipped || got > 1 {
		return fmt.Errorf("recovered epoch = %d, flipped = %v", got, flipped)
	}
	if c := sh.ShardKeyCounts(); !flipped && len(c) == 4 && c[3] != 0 {
		return fmt.Errorf("pre-flip crash left keys on the recipient: counts %v", c)
	}
	return nil
}
