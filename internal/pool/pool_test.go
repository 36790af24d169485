package pool

import (
	"testing"
	"testing/quick"
)

func newPool(t *testing.T, capacity, prefill uint64) *Pool {
	t.Helper()
	p, err := New(capacity, prefill)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFIFOOrder(t *testing.T) {
	p := newPool(t, 8, 8)
	for want := uint64(0); want < 8; want++ {
		v, err := p.Get()
		if err != nil || v != want {
			t.Fatalf("Get = %d,%v want %d", v, err, want)
		}
	}
	if _, err := p.Get(); err != ErrEmpty {
		t.Fatalf("empty Get err = %v", err)
	}
}

func TestPutRecycles(t *testing.T) {
	p := newPool(t, 4, 4)
	a, _ := p.Get() // 0
	b, _ := p.Get() // 1
	p.Put(b)
	p.Put(a)
	// FIFO: next gets are 2, 3, then recycled 1, 0.
	want := []uint64{2, 3, 1, 0}
	for _, w := range want {
		v, err := p.Get()
		if err != nil || v != w {
			t.Fatalf("Get = %d,%v want %d", v, err, w)
		}
	}
}

func TestFull(t *testing.T) {
	p := newPool(t, 2, 2)
	if err := p.Put(99); err != ErrFull {
		t.Fatalf("Put on full pool err = %v", err)
	}
	p.Get()
	if err := p.Put(99); err != nil {
		t.Fatal(err)
	}
}

func TestPrefillValidation(t *testing.T) {
	if _, err := New(2, 3); err == nil {
		t.Fatal("prefill > capacity accepted")
	}
}

func TestWrapAround(t *testing.T) {
	p := newPool(t, 3, 3)
	for i := 0; i < 100; i++ {
		v, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Put(v); err != nil {
			t.Fatal(err)
		}
	}
	if p.Free() != 3 {
		t.Fatalf("free = %d", p.Free())
	}
}

func TestResetTo(t *testing.T) {
	p := newPool(t, 4, 4)
	p.Get()
	if err := p.ResetTo([]uint64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("ResetTo beyond capacity accepted")
	}
	if err := p.ResetTo([]uint64{7, 3}); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 2 {
		t.Fatalf("free = %d", p.Free())
	}
	p.Put(9)
	for _, w := range []uint64{7, 3, 9} {
		if v, err := p.Get(); err != nil || v != w {
			t.Fatalf("Get = %d,%v want %d", v, err, w)
		}
	}
}

// Property: pool contents always behave like a FIFO queue model.
func TestQuickFIFOModel(t *testing.T) {
	f := func(ops []uint8) bool {
		p, err := New(32, 32)
		if err != nil {
			return false
		}
		var model []uint64
		for i := uint64(0); i < 32; i++ {
			model = append(model, i)
		}
		held := []uint64{}
		for _, op := range ops {
			if op%2 == 0 {
				v, err := p.Get()
				if len(model) == 0 {
					if err != ErrEmpty {
						return false
					}
					continue
				}
				if err != nil || v != model[0] {
					return false
				}
				model = model[1:]
				held = append(held, v)
			} else if len(held) > 0 {
				v := held[0]
				held = held[1:]
				if err := p.Put(v); err != nil {
					return false
				}
				model = append(model, v)
			}
		}
		return p.Free() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
