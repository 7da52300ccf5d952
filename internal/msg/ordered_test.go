package msg

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// runOrdered runs body on a fresh p-processor ordered machine, every rank
// starting at clock 0.
func runOrdered(t *testing.T, p int, prof CostProfile, body func(*Proc)) []Replayed {
	t.Helper()
	out, err := NewMachine(p, prof).RunOrdered(make([]float64, p), body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOrderedTieBreakGolden pins the two orders the machine decides by rule
// rather than by stamp: equal stamps are delivered by (source, send
// sequence), and ranks parked at equal keys run in rank order. The events
// are appended by whichever rank is running — one goroutine, so the slice is
// the schedule. On the ideal machine a send is free and stamped with its
// sender's clock.
func TestOrderedTieBreakGolden(t *testing.T) {
	var events []string
	note := func(format string, args ...any) { events = append(events, fmt.Sprintf(format, args...)) }
	const second = 1e9 // flops
	runOrdered(t, 3, Ideal(), func(p *Proc) {
		switch p.ID() {
		case 0:
			// Reaches clock 1 first but polls there, so rank 2 — still at
			// clock 0 — sends before it does.
			p.Compute(second)
			p.TryRecvTags(99)
			note("0 sends at %v", p.Now())
			p.Send(1, 1, "from 0", 1)
		case 1:
			for i := 0; i < 3; i++ {
				payload, _, _ := p.RecvTags(1)
				note("1 got %v at %v", payload, p.Now())
			}
		case 2:
			p.Compute(second)
			note("2 sends at %v", p.Now())
			p.Send(1, 1, "from 2, first", 1)
			p.Send(1, 1, "from 2, second", 1)
		}
	})
	// Ranks 0 and 1 are then both parked at key 1: rank 0 runs first, so its
	// message is in rank 1's inbox when rank 1 looks, and — all three
	// stamped 1 — it is delivered first though it was sent last.
	want := []string{
		"2 sends at 1",
		"0 sends at 1",
		"1 got from 0 at 1",
		"1 got from 2, first at 1",
		"1 got from 2, second at 1",
	}
	if got := strings.Join(events, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("schedule:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestOrderedDeliversInStampOrder: whatever order the senders ran in, a
// receiver gets messages by arrival stamp, and a blocking receive advances
// its clock to exactly that stamp.
func TestOrderedDeliversInStampOrder(t *testing.T) {
	prof := CM5()
	out := runOrdered(t, 3, prof, func(p *Proc) {
		switch p.ID() {
		case 1:
			p.Compute(8e6) // one second: rank 1 sends late though it runs first
			p.Send(0, 1, "late", 1)
		case 2:
			p.Send(0, 1, "early", 1)
		case 0:
			for _, want := range []string{"early", "late"} {
				before := p.Now()
				payload, _ := p.Recv(AnySource, 1)
				if payload != want {
					t.Errorf("got %v, want %v", payload, want)
				}
				if p.Now() <= before {
					t.Errorf("clock did not advance to %v's stamp", payload)
				}
			}
		}
	})
	hops := prof.Hops(1, 0, 3)
	if want := 1 + prof.TS + prof.TransferTime(1, hops); out[0].Now != want {
		t.Errorf("receiver ended at %v, want the late message's stamp %v", out[0].Now, want)
	}
	if out[0].Stats.CommTime != out[0].Now || out[0].Stats.Messages != 0 {
		t.Errorf("receiver stats %+v: all of its time was waiting", out[0].Stats)
	}
}

// TestOrderedPollNeverAdvancesClock: a poll at t sees exactly the stamps
// ≤ t. A message in flight is invisible until the poller's own clock passes
// its stamp, and taking it then costs nothing.
func TestOrderedPollNeverAdvancesClock(t *testing.T) {
	prof := CM5()
	stamp := prof.TS + prof.TransferTime(4, prof.Hops(1, 0, 2))
	runOrdered(t, 2, prof, func(p *Proc) {
		if p.ID() == 1 {
			p.Send(0, 9, "x", 4)
			return
		}
		polls := 0
		for {
			before := p.Stats()
			now := p.Now()
			_, _, _, ok := p.TryRecvTags(9)
			if p.Now() != now || p.Stats() != before {
				t.Fatalf("poll at %v moved the clock to %v (stats %+v → %+v)", now, p.Now(), before, p.Stats())
			}
			if ok != (now >= stamp) {
				t.Fatalf("poll at %v, stamp %v: delivered=%v", now, stamp, ok)
			}
			if ok {
				break
			}
			polls++
			p.Compute(100) // 12.5 µs a poll
		}
		if polls == 0 {
			t.Error("the message was visible before its stamp")
		}
	})
}

// TestOrderedEqualsLiveWithoutPolls: a program of blocking receives only —
// here the collectives — is already a function of its input on the live
// machine, and the ordered machine must compute the same function.
func TestOrderedEqualsLiveWithoutPolls(t *testing.T) {
	for _, p := range []int{1, 5, 8} {
		body := func(pr *Proc) {
			pr.Compute(float64(1000 * (pr.ID() + 1)))
			pr.AllGather(pr.ID(), 3)
			payloads, words := make([]any, p), make([]int, p)
			for i := range payloads {
				payloads[i], words[i] = pr.ID()*p+i, 1+i
			}
			pr.AllToAll(payloads, words)
			pr.Barrier()
			pr.GlobalMaxTime()
		}
		m := NewMachine(p, NCube2())
		live := m.Run(body)
		replayed, err := m.RunOrdered(make([]float64, p), body)
		if err != nil {
			t.Fatal(err)
		}
		for i := range live {
			if replayed[i].Stats != live[i] {
				t.Errorf("p=%d rank %d: ordered %+v, live %+v", p, i, replayed[i].Stats, live[i])
			}
		}
	}
}

// TestOrderedDeadlockNamesRanks: a section nobody can finish comes back as
// an error naming who waits for what, and the parked ranks are unwound.
func TestOrderedDeadlockNamesRanks(t *testing.T) {
	unwound := 0
	m := NewMachine(3, Ideal())
	_, err := m.RunOrdered(make([]float64, 3), func(p *Proc) {
		defer func() { unwound++ }()
		switch p.ID() {
		case 0:
			p.Recv(1, 7)
		case 1:
			p.Send(2, 5, "stray", 1)
			p.RecvTags(3, 4)
		}
	})
	if err == nil {
		t.Fatal("deadlocked section returned no error")
	}
	for _, want := range []string{"deadlocked", "rank 0 blocked on tag 7 from rank 1", "rank 1 blocked on tags [3 4]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rank 2") {
		t.Errorf("error %q names rank 2, which finished", err)
	}
	if unwound != 3 {
		t.Errorf("%d of 3 ranks unwound", unwound)
	}
	if c := m.failure.Load(); c != nil {
		t.Errorf("a deadlocked section poisoned the machine: %v", c.err)
	}
}

// TestOrderedPanicUnwindsOthers: a panic inside one virtual rank is
// re-raised on the caller after the parked ranks have run their deferred
// calls.
func TestOrderedPanicUnwindsOthers(t *testing.T) {
	unwound := 0
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "proc 2: boom") {
			t.Fatalf("recovered %v, want rank 2's panic", r)
		}
		if unwound != 3 {
			t.Errorf("%d of 3 parked ranks unwound", unwound)
		}
	}()
	NewMachine(4, CM5()).RunOrdered(make([]float64, 4), func(p *Proc) {
		if p.ID() == 2 {
			p.Compute(1e6)
			p.TryRecvTags(1) // let the others reach their receives first
			panic("boom")
		}
		defer func() { unwound++ }()
		p.Recv(AnySource, 1)
	})
}

// TestOrderedInterrupt: interrupting the machine while a section runs
// returns the machine's error from RunOrdered.
func TestOrderedInterrupt(t *testing.T) {
	cause := errors.New("watchdog")
	m := NewMachine(2, CM5())
	_, err := m.RunOrdered(make([]float64, 2), func(p *Proc) {
		if p.ID() == 0 {
			m.Interrupt(cause)
		}
		p.Barrier()
		t.Errorf("rank %d ran past the interrupt", p.ID())
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the interrupt's cause", err)
	}
}

// TestLivePollPanics: whether a message has physically arrived by a live
// rank's clock is the host scheduler's answer, so the live machine refuses
// the question.
func TestLivePollPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "polls run on the ordered machine") {
			t.Fatalf("recovered %v, want the live-poll panic", r)
		}
	}()
	NewMachine(1, CM5()).Run(func(p *Proc) { p.TryRecvTags(9) })
}
