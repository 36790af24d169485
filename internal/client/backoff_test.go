package client

import (
	"testing"
	"time"
)

// The one retry schedule grows linearly by retryStep, saturates at retryCap,
// and jitters by up to +50 % without ever undershooting its base — capped
// retries included, so synchronized clients spread out even deep into a
// retry storm.
func TestRetryDelayBounds(t *testing.T) {
	for _, attempt := range []int{1, 2, 3, 50, 100, 101, 1000} {
		base := min(time.Duration(attempt)*5*time.Millisecond, 500*time.Millisecond)
		spread := false
		for range 200 {
			d := retryDelay(attempt)
			if d < base || d > base+base/2 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, base+base/2)
			}
			spread = spread || d != base
		}
		if !spread {
			t.Fatalf("attempt %d: 200 draws all at the base %v, no jitter", attempt, base)
		}
	}
}

// Jitter adds at most half the base delay and never subtracts, so retries
// spread out without undershooting the base schedule.
func TestBackoffJitterBounds(t *testing.T) {
	base := 15 * time.Millisecond // attempt 3
	if got := jitteredDelay(3, 0); got != base {
		t.Fatalf("zero draw: %v, want %v", got, base)
	}
	if got, want := jitteredDelay(3, 1), base+base/2; got != want {
		t.Fatalf("max draw: %v, want %v", got, want)
	}
	if got, want := jitteredDelay(3, 0.5), base+base/4; got != want {
		t.Fatalf("mid draw: %v, want %v", got, want)
	}
}

// The cap applies to the base delay before jitter: a capped retry still
// jitters, so synchronized clients hammering a recovering server spread out
// even deep into a retry storm.
func TestBackoffCapThenJitter(t *testing.T) {
	capped := 500 * time.Millisecond
	if got := jitteredDelay(1000, 0); got != capped {
		t.Fatalf("capped base: %v, want %v", got, capped)
	}
	if got, want := jitteredDelay(1000, 1), capped+capped/2; got != want {
		t.Fatalf("capped max jitter: %v, want %v", got, want)
	}
}
