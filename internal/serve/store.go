// Package serve is the simulation service: a stdlib net/http front
// end over the batch engine (internal/sim) speaking the v1 wire API
// (internal/api), with a content-addressed result store, a
// service-level singleflight, and SSE progress streaming.
//
// The layering is a cache hierarchy. A submission is answered by the
// cheapest tier that can:
//
//	store hit    — the result's bytes are already stored; serve them
//	               verbatim (identical normalized Specs receive
//	               byte-identical bodies, forever)
//	singleflight — the same key is being computed right now; wait for
//	               the leader and share its bytes
//	engine       — simulate in process, then persist to the store
//
// The engine underneath adds its own tiers (memoization, journal
// replay, checkpointed warm starts), so even a store-missing spec
// rarely simulates from cycle zero.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/api"
)

// Store is the content-addressed result store: one file per completed
// run, named by the v1 content address (api.Key) of the normalized
// spec and run lengths, holding the marshaled api.Result bytes that
// every future query for that run is answered with. Writes are
// tmp+rename atomic, so a crash never leaves a torn result behind. The
// store assumes it is the directory's only writer: keys are indexed at
// open and on Put, and a key outside that index is a miss without a
// disk probe.
type Store struct {
	dir string

	mu  sync.Mutex
	mem map[string][]byte // loaded result bytes, by key
	// onDisk indexes every stored key, loaded or not: filled at open
	// and on every Put, it is the store's whole view of its directory.
	onDisk map[string]bool
}

// OpenStore opens (creating if needed) a store rooted at dir and
// indexes the results already present.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	s := &Store{dir: dir, mem: make(map[string][]byte), onDisk: make(map[string]bool)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		key, isResult := strings.CutSuffix(name, ".json")
		if !isResult || !api.ValidKey(key) {
			continue
		}
		s.onDisk[key] = true
	}
	return s, nil
}

// Len returns the number of stored results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.onDisk)
}

// Get returns the stored result bytes for key. The first disk hit per
// key is cached in memory; after that a warm query never touches the
// filesystem.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if b, ok := s.mem[key]; ok {
		s.mu.Unlock()
		return b, true
	}
	onDisk := s.onDisk[key]
	s.mu.Unlock()
	if !onDisk {
		return nil, false
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	s.remember(key, b)
	return b, true
}

func (s *Store) remember(key string, b []byte) {
	s.mu.Lock()
	s.mem[key] = b
	s.onDisk[key] = true
	s.mu.Unlock()
}

// Put persists one result atomically and serves it from memory from
// now on. Double puts of the same key are benign overwrites of
// identical bytes.
func (s *Store) Put(key string, b []byte) error {
	if !api.ValidKey(key) {
		return fmt.Errorf("serve: store: malformed key %q", key)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store: %w", err)
	}
	s.remember(key, b)
	return nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".json") }
