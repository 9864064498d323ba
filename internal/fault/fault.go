// Package fault is tensat's deterministic fault-injection framework.
// Call sites on the I/O and compute hot paths name an injection point
// (a short dotted string like "store.put" or "peer.fetch") and consult
// it with Check before doing the real work. The framework is compiled
// in always — there is no build tag — but costs a single atomic load
// when no fault is armed, so production binaries pay nothing for it.
//
// Faults are armed programmatically from tests (Arm/Reset) or
// at daemon start from the dev-only `tensatd -fault-spec` flag, whose
// grammar ParseSpec implements. A fault fires deterministically: an
// armed point triggers on every Check, or on exactly the first Count
// checks when a count is given, which is how a chaos test expresses
// "fail the first three peer fetches, then recover" and observe a
// circuit breaker trip and re-close.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Mode selects what an armed point does when a Check reaches it.
type Mode int

const (
	// ModeError makes Check return an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModeENOSPC makes Check return an error wrapping syscall.ENOSPC,
	// simulating a full disk.
	ModeENOSPC
	// ModePanic makes Check panic, simulating a buggy rule or cost
	// model. The panic value wraps the point name.
	ModePanic
	// ModeSleep makes Check sleep for the configured duration and then
	// return nil, simulating a slow dependency (the caller's own
	// timeout machinery decides whether that is fatal).
	ModeSleep
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeENOSPC:
		return "enospc"
	case ModePanic:
		return "panic"
	case ModeSleep:
		return "sleep"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrInjected is the error a point armed in ModeError returns,
// wrapped. Call sites and tests match it with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// Action describes how an armed point misbehaves.
type Action struct {
	// Mode selects the behavior; see the Mode constants.
	Mode Mode
	// Count limits how many Checks trigger: the first Count checks
	// fire, later ones pass through. 0 means every check fires until
	// the point is disarmed.
	Count int
	// Sleep is the ModeSleep duration.
	Sleep time.Duration
}

// Points is the registry of injection-point names compiled into the
// binary, mapping each to a short description. ParseSpec rejects names
// outside this set so a typo in -fault-spec fails loudly at boot
// instead of arming nothing.
var Points = map[string]string{
	"store.put":            "cachestore record append (before the frame write)",
	"store.fsync":          "cachestore fsync after a record append",
	"store.get":            "cachestore record read",
	"store.compact.rename": "cachestore compaction temp-file rename",
	"peer.fetch":           "cluster peer cache GET",
	"peer.push":            "cluster peer cache PUT",
	"rewrite.apply":        "rewrite rule application",
}

// armed is the fast-path gate: zero means no point anywhere is armed
// and Check returns nil after one atomic load.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points map[string]*point
)

type point struct {
	action Action
	fired  int
	hits   int
}

// Arm configures a fault at the named point, replacing any previous
// action there. It panics on a name outside Points: arming a point
// that no call site consults is always a bug in the test or spec.
func Arm(name string, a Action) {
	if _, ok := Points[name]; !ok {
		panic(fmt.Sprintf("fault: unknown injection point %q", name))
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{action: a}
}

// Reset disarms every point and clears all hit counts, returning the
// framework to its inert state. Tests that arm faults must defer a
// Reset so state cannot leak across tests.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(0)
}

// Check consults the named injection point. When the point is not
// armed (the overwhelmingly common case) it returns nil after a single
// atomic load. When armed, the point's Action decides: an error is
// returned, a panic is raised, or a sleep is served and nil returned.
// A counted action stops triggering after its first Count checks.
func Check(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.action.Count > 0 && p.fired >= p.action.Count {
		mu.Unlock()
		return nil
	}
	p.fired++
	a := p.action
	mu.Unlock()

	switch a.Mode {
	case ModeError:
		return fmt.Errorf("fault %s: %w", name, ErrInjected)
	case ModeENOSPC:
		return fmt.Errorf("fault %s: %w", name, syscall.ENOSPC)
	case ModePanic:
		panic(fmt.Sprintf("fault %s: injected panic", name))
	case ModeSleep:
		time.Sleep(a.Sleep)
		return nil
	default:
		return fmt.Errorf("fault %s: %w", name, ErrInjected)
	}
}

// ParseSpec parses the -fault-spec grammar and arms every fault it
// names. A spec is a comma-separated list of clauses:
//
//	point:mode[:count]
//
// where mode is one of "error", "enospc", "panic", or "sleep=<dur>"
// (Go duration syntax), and the optional count limits the fault to the
// first count checks. Examples:
//
//	peer.fetch:error:3          fail the first three peer fetches
//	store.put:enospc            every store append sees a full disk
//	rewrite.apply:panic:1       panic exactly once in rule application
//	peer.fetch:sleep=500ms      every peer fetch takes an extra 500ms
//
// An empty spec arms nothing and returns nil. Unknown points, modes,
// or malformed clauses return an error without arming anything.
//
//lint:ctxflow-exempt one pass over the flag-sized spec string at startup
func ParseSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	type armReq struct {
		name   string
		action Action
	}
	var reqs []armReq
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("fault: bad clause %q (want point:mode[:count])", clause)
		}
		name := strings.TrimSpace(parts[0])
		if _, ok := Points[name]; !ok {
			return fmt.Errorf("fault: unknown injection point %q (known: %s)", name, strings.Join(Names(), ", "))
		}
		var a Action
		modeStr := strings.TrimSpace(parts[1])
		switch {
		case modeStr == "error":
			a.Mode = ModeError
		case modeStr == "enospc":
			a.Mode = ModeENOSPC
		case modeStr == "panic":
			a.Mode = ModePanic
		case strings.HasPrefix(modeStr, "sleep="):
			d, err := time.ParseDuration(strings.TrimPrefix(modeStr, "sleep="))
			if err != nil || d < 0 {
				return fmt.Errorf("fault: bad sleep duration in %q", clause)
			}
			a.Mode = ModeSleep
			a.Sleep = d
		default:
			return fmt.Errorf("fault: unknown mode %q in %q (want error, enospc, panic, or sleep=<dur>)", modeStr, clause)
		}
		if len(parts) == 3 {
			n, err := strconv.Atoi(strings.TrimSpace(parts[2]))
			if err != nil || n <= 0 {
				return fmt.Errorf("fault: bad count in %q (want a positive integer)", clause)
			}
			a.Count = n
		}
		reqs = append(reqs, armReq{name: name, action: a})
	}
	for _, r := range reqs {
		Arm(r.name, r.action)
	}
	return nil
}

// Names returns the registered injection-point names, sorted.
//
//lint:ctxflow-exempt bounded pass over the compile-time point table
func Names() []string {
	out := make([]string, 0, len(Points))
	for n := range Points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
