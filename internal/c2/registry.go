package c2

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"malnet/internal/c2/spec"
)

// Protocol is one family's compiled, executable C2 protocol: the
// command codec, the login sequence, the keepalive cadences, the
// probe handshake, and factories for both session machines. It
// replaces the historical per-family free functions
// (EncodeMiraiAttack, ParseGafgytLine, IsMiraiHandshake, ...); the
// only implementation is *spec.Compiled, so every family — built in
// or scenario pack — is registry data.
type Protocol interface {
	// Name is the family name the protocol is registered under.
	Name() string
	// Spec returns the protocol's declarative source.
	Spec() spec.ProtocolSpec
	// CanIssue reports whether the family has an attack-command codec.
	CanIssue() bool
	// EncodeCommand renders cmd in the family's wire encoding.
	EncodeCommand(cmd Command) ([]byte, error)
	// DecodeCommand parses the first attack command in data.
	DecodeCommand(data []byte) (*Command, error)
	// Login renders the bot's session-opening wire sequence.
	Login(v spec.LoginVars) [][]byte
	// NeedsNick reports whether Login references {nick}.
	NeedsNick() bool
	// ClientKeepalive is the bot-initiated keepalive wire + cadence.
	ClientKeepalive() (wire []byte, every time.Duration, ok bool)
	// ServerKeepalive is the server→bot ping wire.
	ServerKeepalive() ([]byte, bool)
	// WrapText wraps a raw operator line per the family's transport.
	WrapText(line string) []byte
	// NewClient returns the bot-side session machine.
	NewClient() spec.ClientConn
	// NewSession returns the server-side session machine.
	NewSession() spec.ServerSession
	// ProbeMessages is the weaponized-probe opening sequence.
	ProbeMessages() [][]byte
	// ProbeEngaged classifies peer data as C2-protocol engagement.
	ProbeEngaged(data []byte) bool
	// Signature labels a session's first outbound payload when it
	// matches the family's protocol artifact.
	Signature(firstOut []byte) (string, bool)
}

// regState is one immutable registry generation. Writes (init-time
// Register, runtime RegisterSpec) copy the whole state and swap the
// pointer, so lookups under concurrent study workers stay lock-free.
type regState struct {
	byName map[string]Protocol
	order  []Protocol // registration order
}

// reg is seeded by a var initializer (not an init func) so it is
// ready before any other file's init-time Register call.
var reg = func() *atomic.Pointer[regState] {
	var p atomic.Pointer[regState]
	p.Store(&regState{byName: map[string]Protocol{}})
	return &p
}()

func regSwap(mutate func(old *regState) (*regState, error)) error {
	for {
		old := reg.Load()
		next, err := mutate(old)
		if err != nil {
			return err
		}
		if next == old {
			return nil
		}
		if reg.CompareAndSwap(old, next) {
			return nil
		}
	}
}

func regAdd(old *regState, p Protocol) *regState {
	next := &regState{
		byName: make(map[string]Protocol, len(old.byName)+1),
		order:  make([]Protocol, 0, len(old.order)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.order = append(next.order, old.order...)
	next.byName[p.Name()] = p
	next.order = append(next.order, p)
	return next
}

// Register adds a compiled protocol under its family name. Duplicate
// registration is a programming error.
func Register(p Protocol) {
	err := regSwap(func(old *regState) (*regState, error) {
		if _, dup := old.byName[p.Name()]; dup {
			return nil, fmt.Errorf("c2: duplicate protocol registration: %s", p.Name())
		}
		return regAdd(old, p), nil
	})
	if err != nil {
		panic(err.Error())
	}
}

// Lookup returns the family's protocol.
func Lookup(family string) (Protocol, bool) {
	p, ok := reg.Load().byName[family]
	return p, ok
}

// Protocols returns every registered protocol in registration order
// (the built-ins come first, in Table 6 order).
func Protocols() []Protocol {
	return append([]Protocol(nil), reg.Load().order...)
}

// Signature labels a session's first outbound payload with the first
// registered protocol, in registration order, whose artifact it
// matches. It reads the registry in place: the classifier calls it
// for every dial of every sample.
func Signature(firstOut []byte) (string, bool) {
	for _, p := range reg.Load().order {
		if label, ok := p.Signature(firstOut); ok {
			return label, true
		}
	}
	return "", false
}

// MustCompile compiles a spec or panics; for init-time registration
// of specs that are program constants.
func MustCompile(ps spec.ProtocolSpec) Protocol {
	c, err := spec.Compile(ps)
	if err != nil {
		panic(err)
	}
	return c
}

// RegisterSpec compiles and registers a runtime-supplied spec (a
// scenario pack's override family). Unlike Register, re-registering
// is allowed when the spec is byte-identical to the existing entry —
// world generation may run many times in one process — and an error
// when it conflicts: the registry is global, so two worlds in one
// process cannot disagree about a family's protocol.
func RegisterSpec(ps spec.ProtocolSpec) error {
	c, err := spec.Compile(ps)
	if err != nil {
		return err
	}
	want, _ := json.Marshal(ps)
	return regSwap(func(old *regState) (*regState, error) {
		if existing, ok := old.byName[ps.Name]; ok {
			have, _ := json.Marshal(existing.Spec())
			if !bytes.Equal(have, want) {
				return nil, fmt.Errorf("c2: family %q already registered with a different spec", ps.Name)
			}
			return old, nil
		}
		return regAdd(old, c), nil
	})
}
