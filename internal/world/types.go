package world

import (
	"net/netip"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/geo"
	"malnet/internal/intel"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
)

// SampleSpec is the ground truth for one feed binary.
type SampleSpec struct {
	// Index is the sample's position in the feed.
	Index int
	// Date is the publication day (midnight UTC).
	Date time.Time
	// Family and Variant are the true lineage.
	Family, Variant string
	// P2P marks Mozi/Hajime samples.
	P2P bool
	// C2Refs are the "host:port" addresses baked into the binary.
	C2Refs []string
	// ScanPorts / ExploitIDs / LoaderName / DownloaderAddr shape
	// proliferation behavior.
	ScanPorts      []uint16
	ExploitIDs     []string
	LoaderName     string
	DownloaderAddr string
	// Evasion is the anti-sandbox gate baked into the binary
	// ("", "connectivity", or "strict").
	Evasion string
	// ForeignArch, when not MIPS, marks a decoy feed entry for
	// another architecture; the collection filter must skip it
	// (§2.2 keeps only MIPS 32B binaries).
	ForeignArch binfmt.Arch
	// Seed drives binary encoding so hashes are reproducible.
	Seed int64

	raw []byte
	sha string
}

// C2Spec is the ground truth for one C2 address.
type C2Spec struct {
	// Address is the reference form: "ip:port" or "name:port".
	Address string
	// IsDNS marks domain-based addresses.
	IsDNS bool
	// Domain is the name for DNS addresses.
	Domain string
	// IP and Port locate the server.
	IP   netip.Addr
	Port uint16
	// ASN is the hosting autonomous system.
	ASN int
	// Birth and Death bound the server's life. Death before the
	// first reference models the 60 % dead-on-arrival case.
	Birth, Death time.Time
	// Sticky marks long-lived, widely shared servers.
	Sticky bool
	// Family/Variant select the protocol the server speaks.
	Family, Variant string
	// SampleIdx are the referencing samples.
	SampleIdx []int
	// FirstRef/LastRef bound the reference dates (observed
	// lifespan ground truth).
	FirstRef, LastRef time.Time
	// AttackLauncher marks the 17 servers that issue DDoS
	// commands.
	AttackLauncher bool
	// Downloader marks servers co-hosting the loader on port 80.
	Downloader bool
	// Elusive applies the harsh duty cycle (the D-PC2 population).
	Elusive bool
	// RelayUpstream, when set, makes the server a P2P relay node:
	// it phones this origin C2 address for commands and re-issues
	// them to its own bot sessions (the p2p-relay scenario pack).
	RelayUpstream string
}

// LiveAt reports whether the server exists at t (duty cycle aside).
func (cs *C2Spec) LiveAt(t time.Time) bool {
	return !t.Before(cs.Birth) && t.Before(cs.Death)
}

// AttackPlan schedules one ground-truth DDoS command.
type AttackPlan struct {
	// C2Address keys into the world's C2 specs.
	C2Address string
	// When is the first issuance attempt; the server retries
	// hourly until a bot is connected.
	When time.Time
	// Retries bounds the re-issuance attempts.
	Retries int
	// Command is the attack.
	Command c2.Command
}

// World is a fully materialized simulation.
type World struct {
	Cfg   Config
	Clock *simclock.Clock
	Net   *simnet.Network
	Geo   *geo.Registry
	Intel *intel.Service

	// Samples is the feed in index order: the MIPS population by
	// publication date, then the foreign-architecture decoys and the
	// scenario packs' samples, which are dated anywhere in the study,
	// so dates are not monotone across the slice. FeedOn picks out one
	// day in this order.
	Samples []*SampleSpec
	// C2s indexes ground-truth servers by address string.
	C2s map[string]*C2Spec
	// Servers are the live protocol servers by address string.
	Servers map[string]*c2.Server
	// DNSZone maps domains to addresses.
	DNSZone map[string]netip.Addr
	// Attacks is the ground-truth DDoS schedule.
	Attacks []AttackPlan
	// ProbeSubnets are the D-PC2 sweep targets.
	ProbeSubnets []simnet.Subnet
	// ProbeStart is when the two-week probing window opens.
	ProbeStart time.Time
	// PlantedElusive counts the elusive C2s planted in the probe
	// subnets (ground truth for D-PC2).
	PlantedElusive int
}

// Resolver is the signature of a DNS lookup against the world's zone.
// The zone is immutable once the world is generated, so a Resolver
// may be called from any number of goroutines concurrently.
type Resolver func(name string) (netip.Addr, bool)

// Resolve is the world's DNS: the resolver the sandbox consults in
// live mode.
func (w *World) Resolve(name string) (netip.Addr, bool) {
	ip, ok := w.DNSZone[name]
	return ip, ok
}
