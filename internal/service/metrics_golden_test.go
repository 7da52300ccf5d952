package service

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wiregolden"
)

// TestMetricsGoldenText renders a fixed counter state — every optional
// family attached — and compares it byte for byte with the text captured
// before the exposition writer moved to internal/obsv.
func TestMetricsGoldenText(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	m := newMetrics(clock)
	m.JobsSubmitted.Add(9)
	m.JobsRejected.Add(1)
	m.JobsDone.Add(6)
	m.JobsQueued.Add(2)
	m.JobsRunning.Add(1)
	m.Workers.Store(2)
	m.StepsTotal.Add(50)
	m.AddMachineTime(1.5)
	m.FramesAppended.Add(50)
	m.ResultsParked.Add(1)
	m.SetFramesBytesFunc(func() int64 { return 123456 })
	m.RecordRecovery(transport.FaultPeerLost)
	m.ObserveStep(0.02, 1.2)
	m.ObserveStep(3, 4)
	var tm transport.Metrics
	tm.FramesSent.Add(700)
	tm.BytesSent.Add(1 << 20)
	tm.Dials.Add(3)
	tm.ConnsOpen.Add(2)
	tm.ObserveRTT(0.00025)
	tm.ObserveRTT(0.004)
	m.SetTransportFunc(func() *transport.Metrics { return &tm })
	clock.Advance(10 * time.Second)
	wiregolden.File(t, "testdata/metrics.golden", []byte(m.Render()))
}
