package serve

import (
	"net/http"
	"sort"

	"malnet/internal/c2"
	"malnet/internal/c2/spec"
	"malnet/internal/obs/redplane"
)

// familyInfo is one family's row in /v1/families: the spec registry's
// view of the protocol (shape, attack vocabulary, duty-cycle model)
// joined with the serving snapshot's per-family sample count.
type familyInfo struct {
	Family          string `json:"family"`
	Transport       string `json:"transport,omitempty"`
	Description     string `json:"description,omitempty"`
	P2P             bool   `json:"p2p,omitempty"`
	Topology        string `json:"topology,omitempty"`
	LaunchesAttacks bool   `json:"launches_attacks,omitempty"`
	Framing         string `json:"framing,omitempty"`
	// Attacks is the command vocabulary in the spec's canonical
	// order; empty for families without an attack codec.
	Attacks []string       `json:"attacks,omitempty"`
	Ports   []uint16       `json:"ports,omitempty"`
	Duty    spec.DutyModel `json:"duty"`
	// Registered distinguishes registry-backed rows from families
	// that appear only in the dataset (a snapshot written by a
	// binary with a richer registry than this one).
	Registered bool `json:"registered"`
	// Samples is the family's D-Samples row count in the served
	// snapshot; zero for registered families the study never fed.
	Samples int `json:"samples"`
}

// familiesResponse is the /v1/families envelope.
type familiesResponse struct {
	Generation string       `json:"generation"`
	Day        int          `json:"day"`
	Total      int          `json:"total"`
	Families   []familyInfo `json:"families"`
}

// attackVocabulary flattens the spec's command set into attack-type
// labels, canonical order.
func attackVocabulary(ps spec.ProtocolSpec) []string {
	if ps.Commands == nil {
		return nil
	}
	var out []string
	if ps.Commands.Binary != nil {
		for _, v := range ps.Commands.Binary.Vectors {
			out = append(out, v.Attack.String())
		}
	}
	if ps.Commands.Text != nil {
		for _, v := range ps.Commands.Text.Verbs {
			out = append(out, v.Attack.String())
		}
	}
	return out
}

// handleFamilies serves GET /v1/families: the spec registry joined
// with per-family dataset counts. Cached like every store endpoint:
// the registry is fixed once the daemon is up — only world.Generate
// registers spec overrides, and malnetd never generates a world — so
// a generation's rows never change.
func (s *Server) handleFamilies(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r); herr != nil {
		return nil, herr
	}
	counts := st.FamilyCounts()
	samples := make(map[string]int, len(counts))
	for _, c := range counts {
		samples[c.Key] = int(c.Value)
	}
	rows := make([]familyInfo, 0, 8)
	seen := map[string]bool{}
	for _, p := range c2.Protocols() {
		ps := p.Spec()
		seen[ps.Name] = true
		rows = append(rows, familyInfo{
			Family:          ps.Name,
			Transport:       ps.Transport,
			Description:     ps.Description,
			P2P:             ps.P2P,
			Topology:        ps.Topology,
			LaunchesAttacks: ps.LaunchesAttacks,
			Framing:         string(ps.Framing),
			Attacks:         attackVocabulary(ps),
			Ports:           ps.Ports,
			Duty:            ps.Duty,
			Registered:      true,
			Samples:         samples[ps.Name],
		})
	}
	for _, c := range counts {
		if !seen[c.Key] {
			rows = append(rows, familyInfo{Family: c.Key, Samples: samples[c.Key]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Family < rows[j].Family })
	return familiesResponse{
		Generation: st.Generation,
		Day:        st.Day,
		Total:      len(rows),
		Families:   rows,
	}, nil
}
