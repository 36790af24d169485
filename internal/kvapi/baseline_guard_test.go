package kvapi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dstore/internal/baselines/btreestore"
	"dstore/internal/baselines/inplacestore"
	"dstore/internal/baselines/lsmstore"
	"dstore/internal/kvapi"
	"dstore/internal/pmem"
	"dstore/internal/ssd"
)

// baselineStore is what the crash sweep and the device-traffic golden need of
// a comparison system.
type baselineStore interface {
	kvapi.Store
	kvapi.Crasher
	Devices() (*pmem.Device, *ssd.Device)
}

// traffic is the device counters a script ends with.
type traffic struct {
	pmWritten, pmRead, lines, fences uint64
	ssdWritten, ssdRead              uint64
}

func trafficOf(s baselineStore) traffic {
	pm, dev := s.Devices()
	ps := pm.Stats()
	tr := traffic{pmWritten: ps.BytesWritten, pmRead: ps.BytesRead, lines: ps.LinesFlushed, fences: ps.Fences}
	if dev != nil {
		ds := dev.Stats()
		tr.ssdWritten, tr.ssdRead = ds.BytesWritten, ds.BytesRead
	}
	return tr
}

// baselines is the three comparison systems. Opened scripted, a store is
// sized so that no background checkpoint or compaction fires during the
// scripts below: every PMEM mutation happens on the calling goroutine, where
// a mutation hook can count and cut it. Configs are set field by field so the
// table does not depend on which struct declares a field.
var baselines = []struct {
	name string
	open func(t *testing.T, scripted, track bool) baselineStore
	// force runs the store's checkpoint on the calling goroutine; nil for the
	// uncached store, which has none.
	force func(s baselineStore) error
	// draws is how many CrashRandom outcomes the sweep adds at each of its
	// power cuts, beside the adversarial CrashDropDirty one.
	draws  int
	golden traffic
}{
	{
		name: "PMEM-RocksDB",
		// Scripted, compaction is off: the compactor goroutine never touches
		// PMEM, and the only compaction is the one Close runs on its caller.
		open: func(t *testing.T, scripted, track bool) baselineStore {
			var c lsmstore.Config
			c.Blocks, c.WALBytes, c.TrackPersistence = blocksFor(scripted), 1<<22, track
			c.DisableCompaction = scripted
			s, err := lsmstore.New(c)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		// A clean shutdown compacts memtable and L0 into L1, persists the
		// manifest and truncates the WAL; Recover reopens the store.
		force: func(s baselineStore) error {
			if err := s.Close(); err != nil {
				return err
			}
			_, _, err := s.Recover()
			return err
		},
		golden: traffic{pmWritten: 315368, pmRead: 76992, lines: 5231, fences: 327, ssdWritten: 368640, ssdRead: 245760},
	},
	{
		name: "MongoDB-PM",
		open: func(t *testing.T, scripted, track bool) baselineStore {
			var c btreestore.Config
			c.Blocks, c.JournalBytes, c.TrackPersistence = blocksFor(scripted), 1<<22, track
			s, err := btreestore.New(c)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		force:  func(s baselineStore) error { return s.(*btreestore.Store).Checkpoint() },
		golden: traffic{pmWritten: 315368, pmRead: 76226, lines: 5231, fences: 327, ssdWritten: 368640, ssdRead: 122880},
	},
	{
		name: "MongoDB-PMSE",
		open: func(t *testing.T, scripted, track bool) baselineStore {
			var c inplacestore.Config
			c.Cells, c.TrackPersistence = blocksFor(scripted), track
			s, err := inplacestore.New(c)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		// A first put persists the cell's contents before its header, and an
		// overwrite the undo image before the marker that arms it: each of
		// the 160 puts pays one fence and one line flush for its order.
		draws:  4,
		golden: traffic{pmWritten: 693840, pmRead: 761815, lines: 11533, fences: 500},
	},
}

// The crash script: 200 puts over 80 keys, the checkpoint forced halfway.
// Values are 2 KiB of one non-zero byte that names the put, so a read names
// the put it returns and padding (zeros) is never mistaken for data.
const (
	sweepPuts  = 200
	sweepKeys  = 80
	sweepValue = 2048
	sweepSSD   = 256 // blocks; the script's 80 keys never reach past them
)

// blocksFor sizes a store's data area: small under the scripts, whose power
// cuts copy it.
func blocksFor(scripted bool) uint64 {
	if scripted {
		return sweepSSD
	}
	return 8192
}

func sweepKey(i int) string   { return fmt.Sprintf("k%03d", i%sweepKeys) }
func sweepBytes(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, sweepValue) }

// sweepRun is one run of the crash script on a fresh store.
type sweepRun struct {
	s        baselineStore
	pm       *pmem.Device
	dev      *ssd.Device
	seen     uint64 // PMEM mutations so far
	cutAt    uint64 // cut power before this mutation; 0 never
	policy   pmem.CrashPolicy
	seed     int64  // drives CrashRandom
	afterCkp uint64 // seen when the forced checkpoint returned
	// What survived the cut: the PMEM image with every unfenced line dropped
	// and the power-protected SSD's blocks. nil until power is cut.
	pmImage, ssdImage []byte
	acked             map[string]int // key -> last put that returned
	inflight          int            // the put power was cut under, or -1
}

// cut takes the power away: the device resolves its lines the way a power
// loss would and the run keeps what survived. The baselines hold plain
// mutexes across device calls, so the operation in flight cannot be unwound
// with a panic the way the root package's runToCrash does it (Crash would
// deadlock on the abandoned lock); it runs on into the void instead, and
// settle puts the surviving image back before recovery.
func (r *sweepRun) cut(t *testing.T) {
	if err := r.pm.Crash(r.policy, r.seed); err != nil {
		t.Fatal(err)
	}
	r.pmImage = append([]byte(nil), r.pm.Bytes()...)
	if r.dev != nil {
		r.ssdImage = make([]byte, sweepSSD*ssd.DefaultPageSize)
		if err := r.dev.ReadAt(0, r.ssdImage); err != nil {
			t.Fatal(err)
		}
	}
}

// play runs the script until it ends or power is cut.
func (r *sweepRun) play(t *testing.T, force func(s baselineStore) error) {
	r.pm, r.dev = r.s.Devices()
	r.acked, r.inflight = map[string]int{}, -1
	r.pm.SetMutationHook(func() {
		if r.seen++; r.seen == r.cutAt {
			r.cut(t)
		}
	})
	defer r.pm.SetMutationHook(nil)
	for i := 0; i < sweepPuts && r.pmImage == nil; i++ {
		if i == sweepPuts/2 && force != nil {
			if err := force(r.s); err != nil {
				t.Fatalf("forced checkpoint: %v", err)
			}
			r.afterCkp = r.seen
			if r.pmImage != nil {
				return
			}
		}
		r.inflight = i
		err := r.s.Put(sweepKey(i), sweepBytes(i))
		if r.pmImage != nil {
			return // issued, never acknowledged
		}
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		r.acked[sweepKey(i)], r.inflight = i, -1
	}
}

// settle restores what survived the cut over whatever the operation in flight
// wrote after it, then crashes and recovers the store.
func (r *sweepRun) settle(t *testing.T) {
	if r.pmImage == nil {
		r.cut(t) // the script ran out first: power goes after its last put
	}
	live := r.pm.Bytes()
	for off := 0; off < len(live); off += pmem.LineSize {
		if want := r.pmImage[off : off+pmem.LineSize]; !bytes.Equal(live[off:off+pmem.LineSize], want) {
			r.pm.WriteAt(uint64(off), want)
			r.pm.Persist(uint64(off), pmem.LineSize)
		}
	}
	if r.dev != nil {
		if err := r.dev.WriteAt(0, r.ssdImage); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.s.Crash(11); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
}

// judge is the verdict: every Put that returned reads back its value or the
// one issued after it on the same key, and no key holds bytes no put wrote.
// Deletes are outside it — the baselines do not journal them (a deleted key
// comes back from the log), which is a property of the models, not of the
// chassis under them.
func (r *sweepRun) judge(t *testing.T) {
	for k := 0; k < sweepKeys; k++ {
		key := sweepKey(k)
		var allowed []int
		a, wasAcked := r.acked[key]
		if wasAcked {
			allowed = append(allowed, a)
		}
		if r.inflight >= 0 && sweepKey(r.inflight) == key {
			allowed = append(allowed, r.inflight)
		}
		got, err := r.s.Get(key, nil)
		if errors.Is(err, kvapi.ErrNotFound) {
			if wasAcked {
				t.Errorf("%s: acknowledged put %d lost", key, a)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", key, err)
			continue
		}
		ok := false
		for _, i := range allowed {
			// Page-granular systems pad to the block with zeros.
			if len(got) >= sweepValue && bytes.Equal(got[:sweepValue], sweepBytes(i)) &&
				len(bytes.TrimRight(got[sweepValue:], "\x00")) == 0 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: read %d bytes starting %#x, want put %v", key, len(got), got[:1], allowed)
		}
	}
}

// crashSweep cuts power at 60 evenly strided PMEM mutations of the script, at
// the first mutation after the forced checkpoint (the table and an empty log
// alone carry every key) and after the last put. Each cut drops every
// unfenced line, and then resolves them at random in draws more runs.
func crashSweep(t *testing.T, open func(t *testing.T, scripted, track bool) baselineStore, force func(s baselineStore) error, draws int) {
	clean := &sweepRun{s: open(t, true, true)}
	clean.play(t, force)
	clean.s.Close()
	total := clean.seen
	cuts := []uint64{clean.afterCkp + 1, total + 1}
	for i := uint64(0); i < 60; i++ {
		cuts = append(cuts, 1+i*total/60)
	}
	for _, k := range cuts {
		for draw := 0; draw <= draws; draw++ {
			r := &sweepRun{s: open(t, true, true), cutAt: k, policy: pmem.CrashDropDirty}
			if draw > 0 {
				r.policy, r.seed = pmem.CrashRandom, int64(k)*16+int64(draw)
			}
			r.play(t, force)
			r.settle(t)
			r.judge(t)
			r.s.Close()
			if t.Failed() {
				t.Fatalf("power cut before mutation %d of %d (checkpoint done at %d), draw %d",
					k, total, clean.afterCkp, draw)
			}
		}
	}
	t.Logf("verified %d points across %d mutations", len(cuts)*(1+draws), total)
}

// TestDeviceTrafficGolden pins, per comparison system, the exact device
// traffic of a fixed single-threaded script — puts, overwrites, gets, the
// forced checkpoint, a crash and its recovery, a clean shutdown. The figures
// that compare the systems (Figs. 1/5/8, Table 4) are functions of these
// counts, so code that moves under the stores must leave them alone.
func TestDeviceTrafficGolden(t *testing.T) {
	for _, b := range baselines {
		b := b
		t.Run(b.name, func(t *testing.T) {
			s := b.open(t, true, false)
			put := func(i, keys int) {
				v := bytes.Repeat([]byte{byte(i + 1)}, 1+(i*131)%4000)
				if err := s.Put(fmt.Sprintf("g%02d", i%keys), v); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			gets := func(keys int) {
				for k := 0; k < keys; k++ {
					if _, err := s.Get(fmt.Sprintf("g%02d", k), nil); err != nil {
						t.Fatalf("get %d: %v", k, err)
					}
				}
			}
			for i := 0; i < 120; i++ {
				put(i, 50)
			}
			gets(50)
			if b.force != nil {
				if err := b.force(s); err != nil {
					t.Fatal(err)
				}
			}
			for i := 120; i < 160; i++ {
				put(i, 70)
			}
			gets(70)
			if err := s.Crash(3); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			gets(70)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := trafficOf(s); got != b.golden {
				t.Fatalf("device traffic moved:\n got  %+v\n want %+v", got, b.golden)
			}
		})
	}
}
