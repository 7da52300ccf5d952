package transport

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics counts host-side transport activity. Everything here lives on
// the real clock: none of it feeds back into the simulated cost model.
type Metrics struct {
	FramesSent   atomic.Int64
	FramesRecv   atomic.Int64
	BytesSent    atomic.Int64
	BytesRecv    atomic.Int64
	Dials        atomic.Int64
	DialRetries  atomic.Int64
	DialFailures atomic.Int64
	Heartbeats   atomic.Int64
	ConnsOpen    atomic.Int64

	// Injected-fault counters, bumped by FaultConn (FaultsDeduped by the
	// receiving node). All zero on a link without a fault plan.
	FaultsDropped    atomic.Int64 // outgoing data frames swallowed
	FaultsDuplicated atomic.Int64 // outgoing data frames sent twice
	FaultsDelayed    atomic.Int64 // outgoing data frames delayed
	FaultsCorrupted  atomic.Int64 // incoming data frames corrupted
	FaultsDeduped    atomic.Int64 // duplicate deliveries dropped by Seq
	FaultsPartitions atomic.Int64 // full partitions triggered

	rtt rttSampler
}

// ObserveRTT records one heartbeat round-trip time in seconds.
func (m *Metrics) ObserveRTT(seconds float64) { m.rtt.observe(seconds) }

// MetricsSnapshot is a point-in-time copy, safe to serialize.
type MetricsSnapshot struct {
	FramesSent   int64 `json:"frames_sent"`
	FramesRecv   int64 `json:"frames_recv"`
	BytesSent    int64 `json:"bytes_sent"`
	BytesRecv    int64 `json:"bytes_recv"`
	Dials        int64 `json:"dials"`
	DialRetries  int64 `json:"dial_retries"`
	DialFailures int64 `json:"dial_failures"`
	Heartbeats   int64 `json:"heartbeats"`
	ConnsOpen    int64 `json:"conns_open"`

	FaultsDropped    int64 `json:"faults_dropped,omitempty"`
	FaultsDuplicated int64 `json:"faults_duplicated,omitempty"`
	FaultsDelayed    int64 `json:"faults_delayed,omitempty"`
	FaultsCorrupted  int64 `json:"faults_corrupted,omitempty"`
	FaultsDeduped    int64 `json:"faults_deduped,omitempty"`
	FaultsPartitions int64 `json:"faults_partitions,omitempty"`

	RTTCount int64   `json:"rtt_count"`
	RTTp50   float64 `json:"rtt_p50_seconds"`
	RTTp99   float64 `json:"rtt_p99_seconds"`
}

// Snapshot copies the counters and RTT percentiles.
func (m *Metrics) Snapshot() MetricsSnapshot {
	count, p50, p99 := m.rtt.percentiles()
	return MetricsSnapshot{
		FramesSent:   m.FramesSent.Load(),
		FramesRecv:   m.FramesRecv.Load(),
		BytesSent:    m.BytesSent.Load(),
		BytesRecv:    m.BytesRecv.Load(),
		Dials:        m.Dials.Load(),
		DialRetries:  m.DialRetries.Load(),
		DialFailures: m.DialFailures.Load(),
		Heartbeats:   m.Heartbeats.Load(),
		ConnsOpen:    m.ConnsOpen.Load(),

		FaultsDropped:    m.FaultsDropped.Load(),
		FaultsDuplicated: m.FaultsDuplicated.Load(),
		FaultsDelayed:    m.FaultsDelayed.Load(),
		FaultsCorrupted:  m.FaultsCorrupted.Load(),
		FaultsDeduped:    m.FaultsDeduped.Load(),
		FaultsPartitions: m.FaultsPartitions.Load(),

		RTTCount: count,
		RTTp50:   p50,
		RTTp99:   p99,
	}
}

// rttSampler keeps the most recent RTT observations in a fixed ring so
// percentiles track current conditions without unbounded memory.
type rttSampler struct {
	mu      sync.Mutex
	samples [512]float64
	n       int   // filled entries, up to len(samples)
	next    int   // ring cursor
	total   int64 // lifetime observation count
}

func (s *rttSampler) observe(v float64) {
	s.mu.Lock()
	s.samples[s.next] = v
	s.next = (s.next + 1) % len(s.samples)
	if s.n < len(s.samples) {
		s.n++
	}
	s.total++
	s.mu.Unlock()
}

func (s *rttSampler) percentiles() (count int64, p50, p99 float64) {
	s.mu.Lock()
	count = s.total
	buf := make([]float64, s.n)
	copy(buf, s.samples[:s.n])
	s.mu.Unlock()
	if len(buf) == 0 {
		return count, 0, 0
	}
	sort.Float64s(buf)
	pct := func(p float64) float64 {
		i := int(p * float64(len(buf)-1))
		return buf[i]
	}
	return count, pct(0.50), pct(0.99)
}
