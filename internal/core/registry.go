package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EngineFactory builds an engine from run options.
type EngineFactory func(Options) Engine

// engineRegistry is the central name → factory table, guarded by
// registryMu so engines may be registered and resolved from concurrent
// goroutines (harness sweeps, parallel tests). Every engine registers
// here once; cmd/dessim, the harness and the tests all resolve engines
// through it instead of keeping their own switch statements. Ablations
// (hj's NoAffinity, SingleSteal, ...) are Options fields on a registered
// engine, not names of their own.
var (
	registryMu     sync.RWMutex
	engineRegistry = map[string]EngineFactory{
		"seq":            NewSequential,
		"seq-pq":         NewSequentialPQ,
		"hj":             NewHJ,
		"galois":         NewGalois,
		"galois-fine":    NewGaloisFine,
		"galois-ordered": NewOrdered,
		"actor":          NewActor,
		"timewarp":       NewTimeWarp,
	}
)

// RegisterEngine adds a named engine factory. It is meant for engines
// living outside this package; registering a nil factory or an empty
// name panics, and so does registering a name that already exists — a
// typo'd registration must fail loudly instead of silently shadowing a
// real engine behind the same name. Safe for concurrent use.
func RegisterEngine(name string, f EngineFactory) {
	if name == "" || f == nil {
		panic("core: RegisterEngine with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := engineRegistry[name]; dup {
		panic(fmt.Sprintf("core: RegisterEngine: engine %q already registered", name))
	}
	engineRegistry[name] = f
}

// NewEngine builds the named engine with the given options. The error
// lists the known engine names. Safe for concurrent use.
func NewEngine(name string, opts Options) (Engine, error) {
	registryMu.RLock()
	f, ok := engineRegistry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q (known: %s)", name, strings.Join(EngineNames(), " | "))
	}
	return f(opts), nil
}

// EngineNames returns every registered engine name, sorted. Safe for
// concurrent use.
func EngineNames() []string {
	registryMu.RLock()
	names := make([]string, 0, len(engineRegistry))
	for name := range engineRegistry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}
