package obsv

import (
	"strings"
	"testing"
)

func TestLabeledCounterSorted(t *testing.T) {
	c := NewLabeledCounter("x_total", "help", "k")
	c.Add("zeta", 1)
	c.Add("alpha", 2)
	c.Add("mid", 3)
	var b strings.Builder
	c.Render(&b)
	text := b.String()
	ia := strings.Index(text, `k="alpha"`)
	im := strings.Index(text, `k="mid"`)
	iz := strings.Index(text, `k="zeta"`)
	if !(ia < im && im < iz) {
		t.Fatalf("label rows not sorted:\n%s", text)
	}
	if c.Total() != 6 {
		t.Fatalf("Total = %d, want 6", c.Total())
	}
	if c.Get("mid") != 3 {
		t.Fatalf("Get(mid) = %d, want 3", c.Get("mid"))
	}
}
