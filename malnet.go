// Package malnet is the public façade of the MalNet reproduction —
// a binary-centric, network-level IoT-malware profiling pipeline
// (Davanian & Faloutsos, ACM IMC 2022) together with every substrate
// it needs: a deterministic virtual Internet, a MITM-capable
// sandbox, the botnet families' C2 protocols, an exploit catalog, a
// threat-intelligence ecosystem, and a calibrated world generator.
//
// Typical use:
//
//	w := malnet.GenerateWorld(malnet.DefaultWorldConfig(42))
//	st := malnet.RunStudy(w, malnet.DefaultStudyConfig(42))
//	fmt.Print(results.NewTable1(st).Render())
//
// The internal packages stay importable within this module;
// downstream consumers work through these aliases plus
// internal/results for the tables and figures.
package malnet

import (
	"malnet/internal/core"
	"malnet/internal/sandbox"
	"malnet/internal/simnet"
	"malnet/internal/world"
)

// World is a fully materialized simulation: network, feeds, C2
// servers, intel ecosystem.
type World = world.World

// WorldConfig tunes world generation.
type WorldConfig = world.Config

// DefaultWorldConfig returns the paper-calibrated world parameters.
func DefaultWorldConfig(seed int64) WorldConfig { return world.DefaultConfig(seed) }

// GenerateWorld builds a world.
func GenerateWorld(cfg WorldConfig) *World { return world.Generate(cfg) }

// Study is the full measurement output (the five datasets).
type Study = core.Study

// StudyConfig tunes the pipeline.
type StudyConfig = core.StudyConfig

// DefaultStudyConfig returns the paper's pipeline settings.
func DefaultStudyConfig(seed int64) StudyConfig { return core.Defaults(seed) }

// RunStudy executes the year-long pipeline against a world.
func RunStudy(w *World, cfg StudyConfig) *Study { return core.RunStudy(w, cfg) }

// Sandbox is the CnCHunter-equivalent dynamic-analysis environment.
type Sandbox = sandbox.Sandbox

// SandboxConfig configures a sandbox installation.
type SandboxConfig = sandbox.Config

// RunOptions configures one sample activation.
type RunOptions = sandbox.RunOptions

// Report is one activation's analysis output.
type Report = sandbox.Report

// NewSandbox installs a sandbox on a virtual network.
func NewSandbox(n *simnet.Network, cfg SandboxConfig) *Sandbox { return sandbox.New(n, cfg) }

// Sandbox modes.
const (
	ModeIsolated = sandbox.ModeIsolated
	ModeLive     = sandbox.ModeLive
)

// DetectC2 classifies a report's traffic into C2 endpoints.
func DetectC2(rep *Report, minAttempts int) []core.C2Candidate {
	return core.DetectC2(rep, minAttempts)
}

// ClassifyExploits classifies a report's handshaker catches.
func ClassifyExploits(rep *Report) []core.ExploitFinding {
	return core.ClassifyExploits(rep)
}

// ProbeConfig parameterizes active probing (the D-PC2 study).
type ProbeConfig = core.ProbeConfig

// ProbeStudy is the probing result.
type ProbeStudy = core.ProbeStudy

// RunProbing sweeps subnets for live C2 servers with a weaponized
// protocol handshake.
func RunProbing(n *simnet.Network, cfg ProbeConfig) *ProbeStudy {
	return core.RunProbing(n, cfg)
}
