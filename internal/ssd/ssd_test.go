package ssd

import (
	"bytes"
	"dstore/internal/fault"
	"dstore/internal/latency"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(Config{Pages: 16, PowerProtected: true})
	src := bytes.Repeat([]byte{0xab}, 4096)
	d.WriteAt(4096, src)
	got := make([]byte, 4096)
	d.ReadAt(4096, got)
	if !bytes.Equal(src, got) {
		t.Fatal("round trip mismatch")
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("page size = %d", d.PageSize())
	}
	if d.Pages() != 1 {
		t.Fatalf("pages = %d", d.Pages())
	}
}

func TestOutOfRangeError(t *testing.T) {
	d := New(Config{Pages: 1})
	if err := d.WriteAt(4090, make([]byte, 100)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteAt err = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadAt(4090, make([]byte, 100)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt err = %v, want ErrOutOfRange", err)
	}
}

func TestPowerProtectedWritesSurviveCrash(t *testing.T) {
	d := New(Config{Pages: 8, PowerProtected: true})
	d.WriteAt(0, []byte("durable"))
	d.Crash(42)
	got := make([]byte, 7)
	d.ReadAt(0, got)
	if string(got) != "durable" {
		t.Fatalf("protected write lost: %q", got)
	}
}

func TestUnprotectedUnsyncedWritesMayBeLost(t *testing.T) {
	lost := false
	for seed := int64(0); seed < 32 && !lost; seed++ {
		d := New(Config{Pages: 8, PowerProtected: false})
		d.WriteAt(0, []byte("gone?"))
		d.Crash(seed)
		got := make([]byte, 5)
		d.ReadAt(0, got)
		if string(got) != "gone?" {
			lost = true
		}
	}
	if !lost {
		t.Fatal("unprotected device never lost an unsynced write across 32 seeds")
	}
}

func TestUnprotectedSyncedWritesSurvive(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		d := New(Config{Pages: 8, PowerProtected: false})
		d.WriteAt(0, []byte("safe"))
		d.Sync()
		d.Crash(seed)
		got := make([]byte, 4)
		d.ReadAt(0, got)
		if string(got) != "safe" {
			t.Fatalf("seed %d: synced write lost: %q", seed, got)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	d := New(Config{Pages: 4, PowerProtected: true})
	d.WriteAt(0, make([]byte, 4096))
	d.ReadAt(0, make([]byte, 1024))
	d.Sync()
	st := d.Stats()
	if st.BytesWritten != 4096 || st.BytesRead != 1024 || st.Syncs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPagesTouched(t *testing.T) {
	d := New(Config{Pages: 8, PowerProtected: true})
	cases := []struct {
		off, n uint64
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4096, 1},
		{0, 4097, 2},
		{4095, 2, 2},
		{4096, 8192, 2},
	}
	for _, c := range cases {
		if got := d.pagesTouched(c.off, c.n); got != c.want {
			t.Errorf("pagesTouched(%d,%d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestConcurrentDisjointPages(t *testing.T) {
	d := New(Config{Pages: 64, PowerProtected: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page := make([]byte, 4096)
			for i := range page {
				page[i] = byte(g)
			}
			for rep := 0; rep < 20; rep++ {
				d.WriteAt(uint64(g*8*4096), page)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		got := make([]byte, 4096)
		d.ReadAt(uint64(g*8*4096), got)
		for _, b := range got {
			if b != byte(g) {
				t.Fatalf("page for goroutine %d corrupted", g)
			}
		}
	}
}

// Property: on an unprotected device, a page's post-crash content is always
// either its pre-write content or the written content — never torn between
// sub-page writes of the same page write.
func TestQuickCrashPageAtomicity(t *testing.T) {
	f := func(seed int64, val byte) bool {
		d := New(Config{Pages: 2, PowerProtected: false})
		first := bytes.Repeat([]byte{^val}, 4096)
		d.WriteAt(0, first)
		d.Sync()
		second := bytes.Repeat([]byte{val}, 4096)
		d.WriteAt(0, second)
		d.Crash(seed)
		got := make([]byte, 4096)
		d.ReadAt(0, got)
		return bytes.Equal(got, first) || bytes.Equal(got, second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A batch applies and faults each request on its own, and waits once, for
// its longest request: eight one-page writes cost one page's latency, not
// eight.
func TestWriteBatchPerRequestVerdictsOneWait(t *testing.T) {
	const perPage = 10 * time.Millisecond
	d := New(Config{Pages: 16, PowerProtected: true, Latency: Latencies{WritePerPage: perPage},
		Faults: fault.NewPlan(fault.Config{BadPages: []uint64{3}})})
	reqs := make([]Write, 8)
	for i := range reqs {
		reqs[i] = Write{Off: uint64(i+1) * DefaultPageSize, P: bytes.Repeat([]byte{byte(i + 1)}, DefaultPageSize)}
	}
	latency.Enable()
	defer latency.Disable()
	start := time.Now()
	d.Submit(reqs).Wait()
	took := time.Since(start)
	for i, r := range reqs {
		if bad := i+1 == 3; bad != fault.IsPermanent(r.Err) || !bad && r.Err != nil {
			t.Fatalf("request %d (page %d): %v", i, i+1, r.Err)
		}
	}
	if got := d.Stats().BytesWritten; got != 7*DefaultPageSize {
		t.Fatalf("%d bytes written, want the 7 good requests' %d", got, 7*DefaultPageSize)
	}
	got := make([]byte, DefaultPageSize)
	if err := d.ReadAt(8*DefaultPageSize, got); err != nil || got[0] != 8 {
		t.Fatalf("page 8 reads %d, %v", got[0], err)
	}
	// Only the bound that tells one wait from eight: a loaded host may stretch
	// one wait, but not to the cost of eight.
	if took < perPage || took >= 8*perPage {
		t.Fatalf("the batch took %v; one page costs %v and eight in a row %v", took, perPage, 8*perPage)
	}
}

// A read waits out each page it touches, counted from the call: two bytes
// across a page boundary cost two pages.
func TestReadChargesEachPageTouched(t *testing.T) {
	const perPage = 2 * time.Millisecond
	d := New(Config{Pages: 8, PowerProtected: true, Latency: Latencies{ReadPerPage: perPage}})
	latency.Enable()
	defer latency.Disable()
	start := time.Now()
	if err := d.ReadAt(DefaultPageSize-1, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 2*perPage {
		t.Fatalf("a two-page read took %v, want at least %v", took, 2*perPage)
	}
}

// A submission's content is on the device at once, but its verdicts are held
// until the completion: every Err is cleared at Submit, even one a reused
// request carried, and set only by Wait, which returns no sooner than the
// device time.
func TestSubmitHoldsVerdictsUntilWait(t *testing.T) {
	const perPage = 5 * time.Millisecond
	d := New(Config{Pages: 8, PowerProtected: true, Latency: Latencies{WritePerPage: perPage},
		Faults: fault.NewPlan(fault.Config{BadPages: []uint64{2}})})
	stale := errors.New("a verdict from an earlier submission")
	reqs := []Write{
		{Off: DefaultPageSize, P: bytes.Repeat([]byte{1}, DefaultPageSize), Err: stale},
		{Off: 2 * DefaultPageSize, P: bytes.Repeat([]byte{2}, DefaultPageSize)},
		{Off: 64 * DefaultPageSize, P: []byte{3}},
	}
	latency.Enable()
	defer latency.Disable()
	start := time.Now()
	pd := d.Submit(reqs)
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("request %d carries %v before Wait", i, r.Err)
		}
	}
	got := make([]byte, DefaultPageSize)
	if err := d.ReadAt(DefaultPageSize, got); err != nil || got[0] != 1 {
		t.Fatalf("page 1 reads %d, %v after Submit", got[0], err)
	}
	pd.Wait()
	if took := time.Since(start); took < perPage {
		t.Fatalf("Wait returned %v after Submit, before the %v device time", took, perPage)
	}
	if reqs[0].Err != nil || !fault.IsPermanent(reqs[1].Err) || !errors.Is(reqs[2].Err, ErrOutOfRange) {
		t.Fatalf("verdicts %v, %v, %v: want nil, permanent, out of range", reqs[0].Err, reqs[1].Err, reqs[2].Err)
	}
}
