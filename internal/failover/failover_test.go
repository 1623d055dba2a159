package failover

import (
	"testing"
	"time"

	"ava/internal/backoff"
	"ava/internal/leaktest"
	"ava/internal/marshal"
)

func TestBackoffDeterministicSchedule(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	cfg := BackoffConfig{Base: time.Millisecond, Cap: 16 * time.Millisecond, Budget: time.Second, Seed: 7}
	a := backoff.New(cfg).Series()
	b := backoff.New(cfg).Series()
	for i := 0; i < 10; i++ {
		da, oka := a.Next()
		db, okb := b.Next()
		if da != db || oka != okb {
			t.Fatalf("step %d: schedules diverge: %v/%v vs %v/%v", i, da, oka, db, okb)
		}
	}
}

func TestBackoffShape(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := backoff.New(BackoffConfig{Base: 4 * time.Millisecond, Cap: 32 * time.Millisecond, Budget: time.Hour, Seed: 1}).Series()
	step := 4 * time.Millisecond
	for i := 0; i < 8; i++ {
		d, ok := s.Next()
		if !ok {
			t.Fatalf("step %d: unexpectedly exhausted", i)
		}
		// Equal jitter: delay in [step/2, step].
		if d < step/2 || d > step {
			t.Fatalf("step %d: delay %v outside [%v, %v]", i, d, step/2, step)
		}
		if step < 32*time.Millisecond {
			step *= 2
		}
	}
}

func TestBackoffBudgetExhaustion(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := backoff.New(BackoffConfig{Base: 10 * time.Millisecond, Cap: 10 * time.Millisecond, Budget: 25 * time.Millisecond, Seed: 3}).Series()
	var total time.Duration
	steps := 0
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		total += d
		steps++
		if steps > 100 {
			t.Fatal("budget never exhausted")
		}
	}
	if total > 25*time.Millisecond {
		t.Fatalf("series slept %v, over the 25ms budget", total)
	}
	if got := s.Spent(); got != total {
		t.Fatalf("Spent() = %v, want %v", got, total)
	}
	// Exhaustion is sticky.
	if _, ok := s.Next(); ok {
		t.Fatal("Next succeeded after exhaustion")
	}
}

func TestControlRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, tc := range []struct {
		kind  byte
		epoch uint32
		w     uint64
	}{
		{marshal.CtrlCheckpoint, 0, 0},
		{marshal.CtrlCheckpoint, 3, 4096},
		{marshal.CtrlRecover, 1, 128},
		{marshal.CtrlDead, 9, 0},
	} {
		frame := marshal.EncodeControl(tc.kind, tc.epoch, tc.w)
		rep, err := marshal.DecodeReply(frame)
		if err != nil {
			t.Fatalf("kind %d: decode reply: %v", tc.kind, err)
		}
		if rep.Seq < marshal.CtrlSeqBase || rep.Seq >= marshal.MarkerSeqBase {
			t.Fatalf("kind %d: seq %#x outside control range", tc.kind, rep.Seq)
		}
		kind, epoch, w, ok := marshal.DecodeControl(rep)
		if !ok {
			t.Fatalf("kind %d: DecodeControl rejected its own encoding", tc.kind)
		}
		if kind != tc.kind || epoch != tc.epoch || w != tc.w {
			t.Fatalf("round trip mismatch: got (%d,%d,%d) want (%d,%d,%d)",
				kind, epoch, w, tc.kind, tc.epoch, tc.w)
		}
	}
}

func TestControlRejectsOrdinaryReplies(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	rep := &marshal.Reply{Seq: 42, Status: marshal.StatusOK, Ret: marshal.BytesVal(make([]byte, 13))}
	if _, _, _, ok := marshal.DecodeControl(rep); ok {
		t.Fatal("DecodeControl accepted an ordinary reply")
	}
	bad := &marshal.Reply{Seq: marshal.CtrlSeqBase | 1, Status: marshal.StatusOK, Ret: marshal.Int(5)}
	if _, _, _, ok := marshal.DecodeControl(bad); ok {
		t.Fatal("DecodeControl accepted a malformed payload")
	}
}
