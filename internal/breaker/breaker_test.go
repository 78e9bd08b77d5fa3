package breaker

import (
	"testing"
	"time"
)

// TestBreakerLifecycle walks the machine the three rungs share: closed
// until the threshold, open with one probe per cooldown, closed again
// only by proof of health.
func TestBreakerLifecycle(t *testing.T) {
	p := Policy{Threshold: 3, Cooldown: 10 * time.Second}
	now := time.Unix(1000, 0)
	var b Breaker

	for i := 1; i <= 2; i++ {
		if b.Failure(p, now) {
			t.Fatalf("opened after %d failures, threshold 3", i)
		}
	}
	// A success in between restarts the streak.
	b.Success()
	for i := 1; i <= 2; i++ {
		if b.Failure(p, now) || b.Open() {
			t.Fatalf("opened %d failures after a success", i)
		}
	}
	if !b.Failure(p, now) || !b.Open() {
		t.Fatal("third consecutive failure did not open the breaker")
	}

	if wait := b.Wait(now.Add(4 * time.Second)); wait != 6*time.Second {
		t.Fatalf("Wait inside the cooldown = %v, want 6s", wait)
	}
	if ok, wait := b.Allow(p, now.Add(4*time.Second)); ok || wait != 6*time.Second {
		t.Fatalf("Allow inside the cooldown = %v, %v; want refused with 6s to go", ok, wait)
	}
	if wait := b.Wait(now.Add(10 * time.Second)); wait != 0 {
		t.Fatalf("Wait once a probe is due = %v, want 0", wait)
	}
	probeAt := now.Add(10 * time.Second)
	if ok, _ := b.Allow(p, probeAt); !ok {
		t.Fatal("no probe admitted once the cooldown elapsed")
	}
	if ok, _ := b.Allow(p, probeAt); ok {
		t.Fatal("a second caller got a probe in the same window")
	}
	// A failed probe neither reports a new opening nor moves the window
	// its admission already claimed.
	if b.Failure(p, probeAt) {
		t.Fatal("failed probe counted as a new opening")
	}
	if ok, wait := b.Allow(p, probeAt.Add(time.Second)); ok || wait != 9*time.Second {
		t.Fatalf("Allow after a failed probe = %v, %v; want refused with 9s to go", ok, wait)
	}

	// A streak reset is not proof of health; Success is.
	b.ResetStreak()
	if !b.Open() {
		t.Fatal("ResetStreak closed an open breaker")
	}
	b.Success()
	if b.Open() {
		t.Fatal("Success left the breaker open")
	}
	if ok, _ := b.Allow(p, probeAt); !ok {
		t.Fatal("closed breaker refused a call")
	}
}
