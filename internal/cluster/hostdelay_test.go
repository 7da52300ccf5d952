package cluster

import (
	"testing"
	"time"

	"repro/internal/parbh"
	"repro/internal/transport"
)

// These tests move frames late on the host clock and demand that nothing
// on the simulated clock notices: a stamp is computed by the sender, and a
// receive — blocking or polling — is answered from stamps alone.

// TestFunctionShippingClockIgnoresHostDelay stalls every rank frame of a
// job by 0, 1 and 5 ms on the host, three mesh processes exchanging real
// encoded frames. The stalls reorder which rank reaches which receive
// first by orders of magnitude more than any scheduler does; the
// simulated clock — SimTime, Imbalance, every rank's ProcStats — must
// equal the plain in-process run bit for bit. (While function shipping's
// polls were answered by physical arrival this failed by tens of
// percent.) The let and data rows pin the same for the LET exchange and
// data shipping's fetch waves, whose clocks were always functions of the
// input but were never held to it under delay.
func TestFunctionShippingClockIgnoresHostDelay(t *testing.T) {
	for _, row := range []struct {
		name     string
		shipping parbh.Shipping
	}{
		{"function", parbh.FunctionShipping},
		{"let", parbh.LETShipping},
		{"data", parbh.DataShipping},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := parbh.Config{Scheme: parbh.DPDA, Mode: parbh.ForceMode, Shipping: row.shipping, Alpha: 0.67, Eps: 0.01, BinSize: 20}
			job, _ := testJob(cfg, 2)
			want := inprocResults(t, job)
			for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
				plans := make([]transport.FaultPlan, 3)
				for proc := range plans {
					plans[proc] = transport.FaultPlan{Seed: int64(proc) + 1 + chaosSeed}
					if delay > 0 {
						plans[proc].DelayProb, plans[proc].Delay = 1, delay
					}
				}
				got := linkResults(t, job, mesh(t, 3, plans), nil)
				if len(got) != len(want) {
					t.Fatalf("delay %v: %d steps, want %d", delay, len(got), len(want))
				}
				for i := range want {
					compareBitIdentical(t, want[i], got[i], i)
				}
			}
		})
	}
}

// lagLink delivers the data frames for one destination process late and
// asynchronously: SendData returns at once and the frame — a private copy,
// in order — reaches the peer after lag. A FaultPlan's delay stalls the
// sender instead, which keeps "sent before" meaning "arrived before"; a
// socket makes no such promise, and neither does this.
type lagLink struct {
	transport.Link
	slow  int
	lag   time.Duration
	queue chan lateFrame
}

type lateFrame struct {
	f   *transport.Frame
	due time.Time
}

func newLagLink(inner transport.Link, slow int, lag time.Duration) *lagLink {
	// Buffered past a step's frames to one process, so senders never wait.
	l := &lagLink{Link: inner, slow: slow, lag: lag, queue: make(chan lateFrame, 4096)}
	go func() {
		for late := range l.queue {
			time.Sleep(time.Until(late.due))
			l.Link.SendData(slow, late.f) // a dead link is the job's failure to report
		}
	}()
	return l
}

func (l *lagLink) SendData(dst int, f *transport.Frame) error {
	if dst != l.slow {
		return l.Link.SendData(dst, f)
	}
	payload, err := transport.RoundTrip(f.Payload)
	if err != nil {
		return err
	}
	cp := *f
	cp.Payload = payload
	l.queue <- lateFrame{f: &cp, due: time.Now().Add(l.lag)}
	return nil
}

func (l *lagLink) Close() error {
	close(l.queue)
	return l.Link.Close()
}

// TestNonReplicatedBuildWaitsForLateSummaries: the non-replicated tree
// build sends child summaries to each top cell's owner. Process 0's frames
// to process 2 arrive 30 ms late while everything else — including the
// barrier messages that reach process 2's ranks through process 1 — is
// prompt, as on three nodes with a slow socket between two of them. An
// owner that treats "the barrier completed" as "every summary has arrived"
// builds its cells from the summaries it happens to hold and the step
// computes a different tree; it must wait for the count it is owed.
func TestNonReplicatedBuildWaitsForLateSummaries(t *testing.T) {
	cfg := parbh.Config{
		Scheme:    parbh.SPDA,
		Mode:      parbh.PotentialMode,
		Shipping:  parbh.DataShipping,
		Alpha:     0.67,
		Degree:    2,
		GridLog2:  4, // deep enough that cells the owners combine are small enough to be accepted
		TreeBuild: parbh.NonReplicatedBuild,
	}
	job, _ := testJob(cfg, 1)
	want := inprocResults(t, job)
	got := linkResults(t, job, mesh(t, 3, nil), func(proc int, node *transport.Node) transport.Link {
		if proc == 0 {
			return newLagLink(node, 2, 30*time.Millisecond)
		}
		return node
	})
	if got[0].Stats != want[0].Stats || got[0].CommWords != want[0].CommWords {
		t.Errorf("stats %+v words %d, want %+v words %d", got[0].Stats, got[0].CommWords, want[0].Stats, want[0].CommWords)
	}
	if got[0].SimTime != want[0].SimTime {
		t.Errorf("simulated time = %.17g, want %.17g", got[0].SimTime, want[0].SimTime)
	}
	for j := range want[0].Potentials {
		if got[0].Potentials[j] != want[0].Potentials[j] {
			t.Fatalf("potential %d = %g, want %g", j, got[0].Potentials[j], want[0].Potentials[j])
		}
	}
}
