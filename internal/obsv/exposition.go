package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// RenderRows appends plain (unlabeled) samples in Prometheus text
// exposition form, sorted by metric name so the output is diff-stable. A
// name ending in _total is typed counter, anything else gauge; values
// arrive formatted, each with the precision its owner chose.
func RenderRows(b *strings.Builder, rows map[string]string) {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		kind := "counter"
		if !strings.HasSuffix(name, "_total") {
			kind = "gauge"
		}
		fmt.Fprintf(b, "# TYPE %s %s\n%s %s\n", name, kind, name, rows[name])
	}
}

// LabeledCounter is a counter family with one label dimension, rendered
// in Prometheus text exposition as name{label="value"} rows. Values are
// created on first use; rendering is sorted so output is diff-stable.
type LabeledCounter struct {
	name  string
	help  string
	label string

	mu sync.Mutex
	m  map[string]*atomic.Int64
}

// NewLabeledCounter builds a counter family keyed by one label.
func NewLabeledCounter(name, help, label string) *LabeledCounter {
	return &LabeledCounter{name: name, help: help, label: label, m: make(map[string]*atomic.Int64)}
}

// Add increments the counter for one label value.
func (c *LabeledCounter) Add(value string, delta int64) {
	c.mu.Lock()
	ctr, ok := c.m[value]
	if !ok {
		ctr = &atomic.Int64{}
		c.m[value] = ctr
	}
	c.mu.Unlock()
	ctr.Add(delta)
}

// Get returns the count for one label value.
func (c *LabeledCounter) Get(value string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr, ok := c.m[value]; ok {
		return ctr.Load()
	}
	return 0
}

// Total sums the family.
func (c *LabeledCounter) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, ctr := range c.m {
		sum += ctr.Load()
	}
	return sum
}

// Render appends the family's exposition rows. A family with no
// observations still emits its TYPE header so scrapers learn the
// schema.
func (c *LabeledCounter) Render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	c.mu.Lock()
	values := make([]string, 0, len(c.m))
	for v := range c.m {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", c.name, c.label, v, c.m[v].Load())
	}
	c.mu.Unlock()
}
