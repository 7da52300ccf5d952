package msg

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestRecvTagsFiltersProtocols(t *testing.T) {
	// A processor waiting on protocol tags must not consume a collective
	// message from a peer that raced ahead.
	m := NewMachine(2, Ideal())
	m.Run(func(p *Proc) {
		const protoTag = 7
		if p.ID() == 0 {
			// Send a protocol message, then immediately join a collective.
			p.Send(1, protoTag, "work", 1)
			got := p.AllGather(p.ID(), 1)
			if got[1].(int) != 1 {
				t.Errorf("collective corrupted: %v", got)
			}
		} else {
			// Receive only the protocol tag first, then the collective:
			// the collective's message must still be there.
			payload, from, tag := p.RecvTags(protoTag)
			if payload.(string) != "work" || from != 0 || tag != protoTag {
				t.Errorf("RecvTags got %v/%d/%d", payload, from, tag)
			}
			got := p.AllGather(p.ID(), 1)
			if got[0].(int) != 0 {
				t.Errorf("collective corrupted: %v", got)
			}
		}
	})
}

func TestRecvTagsMultiple(t *testing.T) {
	m := NewMachine(2, Ideal())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 5, "five", 1)
			p.Send(1, 3, "three", 1)
		} else {
			// Accept either of two tags; arrival order decides.
			seen := map[int]string{}
			for i := 0; i < 2; i++ {
				payload, _, tag := p.RecvTags(3, 5)
				seen[tag] = payload.(string)
			}
			if seen[3] != "three" || seen[5] != "five" {
				t.Errorf("seen = %v", seen)
			}
		}
	})
}

func TestTryRecvTagsNonBlocking(t *testing.T) {
	runOrdered(t, 1, Ideal(), func(p *Proc) {
		if _, _, _, ok := p.TryRecvTags(1, 2, 3); ok {
			t.Error("matched on empty mailbox")
		}
		p.Send(0, 2, 42, 1)
		payload, _, tag, ok := p.TryRecvTags(1, 2, 3)
		if !ok || tag != 2 || payload.(int) != 42 {
			t.Errorf("TryRecvTags: %v/%d/%v", payload, tag, ok)
		}
		if _, _, _, ok := p.TryRecvTags(1, 2, 3); ok {
			t.Error("a taken message was delivered twice")
		}
	})
}

func TestMessageStorm(t *testing.T) {
	// Randomized all-pairs traffic with tag matching: every message must
	// arrive exactly once at the right place.
	const p = 8
	const perPair = 50
	m := NewMachine(p, NCube2())
	var received int64
	m.Run(func(pr *Proc) {
		rng := rand.New(rand.NewSource(int64(pr.ID())))
		// Send bursts to random destinations, then tell every rank how many
		// to expect: a barrier would only say the sends were issued.
		sent := make([]any, p)
		words := make([]int, p)
		for i := range sent {
			sent[i], words[i] = 0, 1
		}
		for i := 0; i < perPair*(p-1); i++ {
			dst := rng.Intn(p - 1)
			if dst >= pr.ID() {
				dst++
			}
			pr.Send(dst, 99, [2]int{pr.ID(), i}, 2)
			sent[dst] = sent[dst].(int) + 1
		}
		expect := 0
		for _, n := range pr.AllToAll(sent, words) {
			expect += n.(int)
		}
		for ; expect > 0; expect-- {
			payload, from, _ := pr.RecvTags(99)
			pair := payload.([2]int)
			if pair[0] != from {
				t.Errorf("payload source %d but sender %d", pair[0], from)
			}
			atomic.AddInt64(&received, 1)
		}
	})
	want := int64(p * perPair * (p - 1))
	if received != want {
		t.Fatalf("received %d messages, want %d", received, want)
	}
}

func TestBlockingRecvAcrossScheduling(t *testing.T) {
	// A chain of dependent blocking receives across all processors: the
	// token must travel the ring twice without loss.
	const p = 16
	m := NewMachine(p, CM5())
	m.Run(func(pr *Proc) {
		for round := 0; round < 2; round++ {
			if pr.ID() == 0 {
				pr.Send(1, 1, round*100, 1)
				payload, _ := pr.Recv((p - 1), 1)
				if payload.(int) != round*100+p-1 {
					t.Errorf("round %d: token %v", round, payload)
				}
			} else {
				payload, _ := pr.Recv(pr.ID()-1, 1)
				pr.Send((pr.ID()+1)%p, 1, payload.(int)+1, 1)
			}
		}
	})
}

func TestClockMonotonic(t *testing.T) {
	m := NewMachine(4, NCube2())
	m.Run(func(p *Proc) {
		prev := p.Now()
		for i := 0; i < 50; i++ {
			switch i % 3 {
			case 0:
				p.Compute(1000)
			case 1:
				p.Send((p.ID()+1)%4, 2, i, 1)
			case 2:
				p.Recv((p.ID()+3)%4, 2)
			}
			if p.Now() < prev {
				t.Errorf("clock went backwards: %v -> %v", prev, p.Now())
			}
			prev = p.Now()
		}
		// Drain the last unreceived message from the ring neighbour.
		p.Recv((p.ID()+3)%4, 2)
	})
}

func TestNegativeComputePanics(t *testing.T) {
	m := NewMachine(1, Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("negative compute accepted")
		}
	}()
	m.Run(func(p *Proc) { p.Compute(-1) })
}
