package results

import (
	"fmt"
	"time"

	"malnet/internal/core"
	"malnet/internal/obs"
	"malnet/internal/report"
)

// MetricsSection surfaces the study's deterministic metrics snapshot
// in the report: the pipeline's funnel (feed → accepted), sandbox
// activity, traffic and fault totals split between worker-shard
// networks and the shared world network, probing effort, and the
// disposition tally. Everything here is computed once from the obs
// registry, so the section is byte-identical at any worker count and
// serializes directly (the daemon serves it as JSON); wall-clock
// figures are deliberately absent (they live on the debug listener's
// /metrics).
type MetricsSection struct {
	FeedDecoysSkipped int64 `json:"feed_decoys_skipped"`
	FeedRejectedIntel int64 `json:"feed_rejected_intel"`
	SamplesAccepted   int64 `json:"samples_accepted"`

	SandboxRuns        int64 `json:"sandbox_runs"`
	SandboxActivations int64 `json:"sandbox_activations"`
	WatchdogAborts     int64 `json:"watchdog_aborts"`
	MeanEventsPerRun   int64 `json:"mean_events_per_run"`

	ShardConnsDialed      int64 `json:"shard_conns_dialed"`
	ShardConnsEstablished int64 `json:"shard_conns_established"`
	ShardTCPPayloadBytes  int64 `json:"shard_tcp_payload_bytes"`
	ShardFaults           int64 `json:"shard_faults"`
	WorldConnsDialed      int64 `json:"world_conns_dialed"`
	WorldFaults           int64 `json:"world_faults"`

	ProbeAttempts    int64         `json:"probe_attempts"`
	ProbeRetries     int64         `json:"probe_retries"`
	ProbeBackoff     time.Duration `json:"probe_backoff_virtual_ns"`
	ProbeEngagements int64         `json:"probe_engagements"`

	Dispositions DispositionCounts `json:"dispositions"`
}

// DispositionCounts is the study's liveness-disposition tally.
type DispositionCounts struct {
	Alive            int64 `json:"alive"`
	RetriedThenAlive int64 `json:"retried_then_alive"`
	Dead             int64 `json:"dead"`
	TimedOut         int64 `json:"timed_out"`
}

// NewMetricsSection reads a study's metrics registry. Hand-built
// studies without an observer compute all-zero values.
func NewMetricsSection(st *core.Study) MetricsSection {
	return MetricsSectionFrom(st.Metrics())
}

// MetricsSectionFrom computes the section from any registry — a live
// study's, or one reconstructed from a checkpoint's metrics dump (the
// serving path, where no *core.Study exists). A nil registry reads
// as all zeroes.
func MetricsSectionFrom(reg *obs.Registry) MetricsSection {
	faultTotal := func(prefix string) int64 {
		var n int64
		for _, class := range []string{"syn_drop", "segment_drop", "reset", "latency_spike", "blackout", "slow_drip"} {
			n += reg.ReadCounter(prefix + "simnet.faults." + class)
		}
		return n
	}
	runs, events := reg.ReadHistogram("sandbox.events_per_run")
	meanEvents := int64(0)
	if runs > 0 {
		meanEvents = events / runs
	}
	return MetricsSection{
		FeedDecoysSkipped: reg.ReadCounter("feed.decoys_skipped"),
		FeedRejectedIntel: reg.ReadCounter("feed.rejected_intel"),
		SamplesAccepted:   reg.ReadCounter("feed.samples_accepted"),

		SandboxRuns:        reg.ReadCounter("sandbox.runs"),
		SandboxActivations: reg.ReadCounter("sandbox.activations"),
		WatchdogAborts:     reg.ReadCounter("sandbox.watchdog_aborts"),
		MeanEventsPerRun:   meanEvents,

		ShardConnsDialed:      reg.ReadCounter("simnet.conns_dialed"),
		ShardConnsEstablished: reg.ReadCounter("simnet.conns_established"),
		ShardTCPPayloadBytes:  reg.ReadCounter("simnet.tcp_payload_bytes"),
		ShardFaults:           faultTotal(""),
		WorldConnsDialed:      reg.ReadCounter("world.simnet.conns_dialed"),
		WorldFaults:           faultTotal("world."),

		ProbeAttempts:    reg.ReadCounter("probe.attempts"),
		ProbeRetries:     reg.ReadCounter("probe.retries"),
		ProbeBackoff:     time.Duration(reg.ReadCounter("probe.backoff_virtual_ns")),
		ProbeEngagements: reg.ReadCounter("probe.engaged"),

		Dispositions: DispositionCounts{
			Alive:            reg.ReadCounter("study.disposition.alive"),
			RetriedThenAlive: reg.ReadCounter("study.disposition.retried-then-alive"),
			Dead:             reg.ReadCounter("study.disposition.dead"),
			TimedOut:         reg.ReadCounter("study.disposition.timed-out"),
		},
	}
}

// Render prints the section as a key-value block.
func (m MetricsSection) Render() string {
	c := func(v int64) string { return fmt.Sprint(v) }
	pairs := [][2]string{
		{"feed decoys skipped", c(m.FeedDecoysSkipped)},
		{"feed rejected by intel gate", c(m.FeedRejectedIntel)},
		{"samples accepted", c(m.SamplesAccepted)},
		{"sandbox runs", c(m.SandboxRuns)},
		{"sandbox activations", c(m.SandboxActivations)},
		{"watchdog aborts", c(m.WatchdogAborts)},
		{"events per isolated run (mean)", c(m.MeanEventsPerRun)},
		{"shard conns dialed", c(m.ShardConnsDialed)},
		{"shard conns established", c(m.ShardConnsEstablished)},
		{"shard TCP payload bytes", c(m.ShardTCPPayloadBytes)},
		{"shard faults injected", c(m.ShardFaults)},
		{"world conns dialed", c(m.WorldConnsDialed)},
		{"world faults injected", c(m.WorldFaults)},
		{"probe attempts", c(m.ProbeAttempts)},
		{"probe retries", c(m.ProbeRetries)},
		{"probe backoff (virtual)", m.ProbeBackoff.String()},
		{"probe engagements", c(m.ProbeEngagements)},
		{"dispositions alive/retried/dead/timed-out", fmt.Sprintf("%s/%s/%s/%s",
			c(m.Dispositions.Alive), c(m.Dispositions.RetriedThenAlive),
			c(m.Dispositions.Dead), c(m.Dispositions.TimedOut))},
	}
	return report.KV("Pipeline metrics (deterministic)", pairs)
}
