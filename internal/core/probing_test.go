package core

import (
	"testing"
	"time"

	"malnet/internal/c2"
	"malnet/internal/faultinject"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
)

// probeWorld builds a small probing scenario: one /28-equivalent
// subnet (a /24 sliced by port list of 1) with a live C2, a banner
// host, and dead space.
func probeWorld(t *testing.T, duty c2.DutyCycle, alwaysOn bool) (*simnet.Network, simnet.Subnet) {
	t.Helper()
	clock := simclock.New(t0)
	n := simnet.New(clock, simnet.DefaultConfig())
	subnet := simnet.SubnetFrom("203.0.113.0/24")
	c2.NewServer(n, c2.ServerConfig{
		Family:   c2.FamilyMirai,
		Addr:     simnet.Addr{IP: subnet.HostAt(5), Port: 1312},
		Birth:    t0.Add(-24 * time.Hour),
		Death:    t0.Add(60 * 24 * time.Hour),
		Duty:     duty,
		AlwaysOn: alwaysOn,
	})
	banner := n.AddHost(subnet.HostAt(10))
	banner.ServeBanner(1312, "HTTP/1.1 200 OK\r\nServer: nginx\r\n\r\n")
	return n, subnet
}

func TestProbingFindsAlwaysOnC2EveryRound(t *testing.T) {
	n, subnet := probeWorld(t, c2.DutyCycle{}, true)
	study := RunProbing(n, ProbeConfig{
		Subnets:  []simnet.Subnet{subnet},
		Ports:    []uint16{1312},
		Interval: 4 * time.Hour,
		Rounds:   6,
		Family:   c2.FamilyMirai,
	})
	if len(study.LiveC2s) != 1 {
		t.Fatalf("live C2s = %d, want 1", len(study.LiveC2s))
	}
	got := study.LiveC2s[0]
	if got.Addr != (simnet.Addr{IP: subnet.HostAt(5), Port: 1312}) {
		t.Fatalf("C2 addr = %v", got.Addr)
	}
	if got.Engagements() != 6 {
		t.Fatalf("engagements = %d, want 6", got.Engagements())
	}
}

func TestProbingExcludesBannerHosts(t *testing.T) {
	n, subnet := probeWorld(t, c2.DutyCycle{}, true)
	study := RunProbing(n, ProbeConfig{
		Subnets: []simnet.Subnet{subnet},
		Ports:   []uint16{1312},
		Rounds:  2,
		Family:  c2.FamilyMirai,
	})
	for _, live := range study.LiveC2s {
		if live.Addr.IP == subnet.HostAt(10) {
			t.Fatal("nginx banner host classified as C2")
		}
	}
}

func TestProbingElusiveC2SpottyResponses(t *testing.T) {
	n, subnet := probeWorld(t, c2.DefaultDutyCycle(77), false)
	study := RunProbing(n, ProbeConfig{
		Subnets:  []simnet.Subnet{subnet},
		Ports:    []uint16{1312},
		Interval: 4 * time.Hour,
		Rounds:   84,
		Family:   c2.FamilyMirai,
	})
	if len(study.LiveC2s) != 1 {
		t.Fatalf("live C2s = %d, want 1", len(study.LiveC2s))
	}
	eng := study.LiveC2s[0].Engagements()
	if eng == 0 || eng == 84 {
		t.Fatalf("engagements = %d, want spotty (0 < e < 84)", eng)
	}
	if streak := study.MaxDailyStreak(); streak >= 6 {
		t.Fatalf("daily streak = %d, want < 6 (paper: never 6/6)", streak)
	}
}

func TestProbingSecondMissRateNearPaper(t *testing.T) {
	// Aggregate over several elusive servers to measure the 91%
	// second-probe miss rate through the full probing stack.
	clock := simclock.New(t0)
	n := simnet.New(clock, simnet.DefaultConfig())
	subnet := simnet.SubnetFrom("203.0.113.0/24")
	for i := 0; i < 30; i++ {
		c2.NewServer(n, c2.ServerConfig{
			Family: c2.FamilyMirai,
			Addr:   simnet.Addr{IP: subnet.HostAt(i), Port: 1312},
			Birth:  t0.Add(-24 * time.Hour),
			Death:  t0.Add(60 * 24 * time.Hour),
			Duty:   c2.DefaultDutyCycle(int64(1000 + i)),
		})
	}
	study := RunProbing(n, ProbeConfig{
		Subnets:  []simnet.Subnet{subnet},
		Ports:    []uint16{1312},
		Interval: 4 * time.Hour,
		Rounds:   84,
		Family:   c2.FamilyMirai,
	})
	rate, pairs := study.SecondProbeMissRate()
	if pairs < 50 {
		t.Fatalf("too few success pairs: %d", pairs)
	}
	if rate < 0.80 || rate > 0.98 {
		t.Fatalf("second-probe miss rate = %.3f over %d pairs, want ~0.91", rate, pairs)
	}
}

func TestProbingGafgytProtocolEngagement(t *testing.T) {
	clock := simclock.New(t0)
	n := simnet.New(clock, simnet.DefaultConfig())
	subnet := simnet.SubnetFrom("203.0.113.0/24")
	c2.NewServer(n, c2.ServerConfig{
		Family:   c2.FamilyGafgyt,
		Addr:     simnet.Addr{IP: subnet.HostAt(3), Port: 666},
		Birth:    t0.Add(-time.Hour),
		Death:    t0.Add(30 * 24 * time.Hour),
		AlwaysOn: true,
	})
	study := RunProbing(n, ProbeConfig{
		Subnets: []simnet.Subnet{subnet},
		Ports:   []uint16{666},
		Rounds:  2,
		Family:  c2.FamilyGafgyt,
	})
	if len(study.LiveC2s) != 1 || study.LiveC2s[0].Engagements() != 2 {
		t.Fatalf("study = %+v", study.LiveC2s)
	}
}

func TestProbingEmptySubnetFindsNothing(t *testing.T) {
	clock := simclock.New(t0)
	n := simnet.New(clock, simnet.DefaultConfig())
	study := RunProbing(n, ProbeConfig{
		Subnets: []simnet.Subnet{simnet.SubnetFrom("198.51.100.0/24")},
		Ports:   []uint16{1312},
		Rounds:  2,
	})
	if len(study.LiveC2s) != 0 {
		t.Fatalf("live C2s = %d in empty space", len(study.LiveC2s))
	}
	if study.ProbesSent != 2*254 {
		t.Fatalf("probes sent = %d, want %d", study.ProbesSent, 2*254)
	}
}

func TestProbePortsAreTable5(t *testing.T) {
	if len(ProbePorts) != 12 {
		t.Fatalf("ports = %d, want 12", len(ProbePorts))
	}
	want := map[uint16]bool{1312: true, 666: true, 1791: true, 9506: true, 606: true,
		6738: true, 5555: true, 1014: true, 3074: true, 6969: true, 42516: true, 81: true}
	for _, p := range ProbePorts {
		if !want[p] {
			t.Fatalf("unexpected port %d", p)
		}
	}
}

func TestRasterShape(t *testing.T) {
	n, subnet := probeWorld(t, c2.DutyCycle{}, true)
	study := RunProbing(n, ProbeConfig{
		Subnets: []simnet.Subnet{subnet},
		Ports:   []uint16{1312},
		Rounds:  4,
		Family:  c2.FamilyMirai,
	})
	raster := study.Raster()
	if len(raster) != 1 || len(raster[0]) != 4 {
		t.Fatalf("raster dims = %dx%d", len(raster), len(raster[0]))
	}
}

// TestProbingRetriesRecoverUnderFaults: with injected SYN loss a
// retry-less study misses rounds; the bounded-backoff retry layer
// recovers them, and the retry counter records the extra dials.
func TestProbingRetriesRecoverUnderFaults(t *testing.T) {
	run := func(retries int) *ProbeStudy {
		n, subnet := probeWorld(t, c2.DutyCycle{}, true)
		n.InstallFaults(faultinject.New(faultinject.Config{Seed: 21, SYNLossRate: 0.45}))
		return RunProbing(n, ProbeConfig{
			Subnets:  []simnet.Subnet{subnet},
			Ports:    []uint16{1312},
			Interval: 4 * time.Hour,
			Rounds:   6,
			Family:   c2.FamilyMirai,
			Retries:  retries,
			Seed:     21,
		})
	}
	bare := run(0)
	retried := run(4)

	bareHits, retriedHits := 0, 0
	if len(bare.LiveC2s) == 1 {
		bareHits = bare.LiveC2s[0].Engagements()
	}
	if len(retried.LiveC2s) != 1 {
		t.Fatalf("retried study found %d live C2s, want 1", len(retried.LiveC2s))
	}
	retriedHits = retried.LiveC2s[0].Engagements()

	if bareHits >= 6 {
		t.Fatalf("45%% SYN loss but retry-less study engaged all %d rounds; faults not biting", bareHits)
	}
	if retriedHits < 5 {
		t.Fatalf("retried engagements = %d, want >= 5 (bare study had %d)", retriedHits, bareHits)
	}
	if retriedHits <= bareHits {
		t.Fatalf("retries did not help: %d vs %d engagements", retriedHits, bareHits)
	}
	if retried.Retries == 0 {
		t.Fatal("retry counter stayed zero under 45% SYN loss")
	}
	if bare.Retries != 0 {
		t.Fatalf("retry-less study counted %d retries", bare.Retries)
	}
}

// TestProbeStaleEngageTimeoutSparesRetry: a probe's first attempt
// connects and is reset, and its retry connects before the first
// attempt's engagement timeout fires. That stale timeout must leave
// the retry's conn alone; the retry's own timeout closes it.
func TestProbeStaleEngageTimeoutSparesRetry(t *testing.T) {
	clock := simclock.New(t0)
	n := simnet.New(clock, simnet.DefaultConfig())
	target := simnet.AddrFrom("203.0.113.5", 1312)
	var opened, closed []time.Time
	n.AddHost(target.IP).ListenTCP(target.Port, func(_, _ simnet.Addr) simnet.ConnHandler {
		i := len(opened)
		opened = append(opened, clock.Now())
		closed = append(closed, time.Time{})
		return simnet.ConnFuncs{
			Connect: func(c *simnet.Conn) {
				if i == 0 {
					clock.After(time.Second, c.Abort)
				}
			},
			Close: func(*simnet.Conn, error) { closed[i] = clock.Now() },
		}
	})
	const engage = 90 * time.Second
	study := RunProbing(n, ProbeConfig{
		Subnets:       []simnet.Subnet{simnet.SubnetFrom("203.0.113.5/32")},
		Ports:         []uint16{target.Port},
		Rounds:        1,
		EngageTimeout: engage,
		Family:        c2.FamilyMirai,
		Retries:       1,
		Seed:          1,
	})
	if study.Retries != 1 || len(opened) != 2 {
		t.Fatalf("%d retries and %d accepted conns, want 1 and 2", study.Retries, len(opened))
	}
	if !opened[1].Before(opened[0].Add(engage)) {
		t.Fatalf("retry connected at +%v, after the first attempt's timeout at +%v", opened[1].Sub(t0), opened[0].Add(engage).Sub(t0))
	}
	if closed[1].Sub(opened[1]) < engage {
		t.Fatalf("retry's conn closed %v after it opened, before its own %v engagement timeout", closed[1].Sub(opened[1]), engage)
	}
}
