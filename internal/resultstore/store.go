// Package resultstore is the content-addressed result cache behind
// the gpuperf fleet: a byte-budgeted in-memory LRU in front of an
// on-disk slot store, with singleflight deduplication of concurrent
// identical computations.
//
// Keys are request fingerprints (hex digests computed by the caller);
// values are opaque serialized payloads. The disk layer generalizes
// internal/timing's calibration-cache machinery — one file per key,
// written atomically (write-temp-then-rename), where a corrupt,
// truncated or wrong-slot file reads as a miss (never an error) and
// is repaired by the next successful Put.
package resultstore

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpuperf/internal/atomicfile"
)

// Status classifies how one Do call was served.
type Status int

const (
	// Miss: this call ran the computation (the singleflight leader).
	Miss Status = iota
	// MemoryHit: served from the in-memory LRU.
	MemoryHit
	// DiskHit: served from the on-disk slot (and promoted to memory).
	DiskHit
	// Coalesced: this call waited on another caller's in-flight
	// computation and shared its result.
	Coalesced
)

// Config configures a Store.
type Config struct {
	// MemoryBytes is the in-memory LRU's byte budget (sum of cached
	// payload sizes). 0 disables the memory tier.
	MemoryBytes int64
	// Dir, when non-empty, is the on-disk slot directory, shared by
	// every store (and every process) pointed at it.
	Dir string
}

// Stats are the store's monotonic counters and gauges.
type Stats struct {
	// Hits = MemoryHits + DiskHits.
	Hits       int64 `json:"hits"`
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	// Misses counts computations started (singleflight leaders).
	Misses int64 `json:"misses"`
	// Coalesced counts callers that waited on a leader instead of
	// computing.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts LRU entries dropped to respect the byte budget.
	Evictions int64 `json:"evictions"`
	// SaveErrors counts failed best-effort disk writes.
	SaveErrors int64 `json:"save_errors,omitempty"`
	// InFlight is the number of computations running right now.
	InFlight int `json:"in_flight"`
	// Entries and Bytes describe the current memory tier.
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	MemoryBudget int64 `json:"memory_budget_bytes"`
}

// Store is the cache. Safe for concurrent use.
type Store struct {
	cfg Config

	mu      sync.Mutex
	byKey   map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[string]*flight
	stats   Stats
}

type entry struct {
	key  string
	body []byte
}

// flight is one in-progress computation; followers wait on done and
// read body/err afterwards (published by the close).
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// New builds a store. The disk directory is created lazily on first
// Put.
func New(cfg Config) *Store {
	return &Store{
		cfg:     cfg,
		byKey:   map[string]*list.Element{},
		lru:     list.New(),
		flights: map[string]*flight{},
	}
}

// Do serves key from the cache, or runs compute exactly once however
// many identical calls arrive concurrently: the first caller becomes
// the leader and computes (with its own context); the rest hold no
// resources while they wait and abandon the wait when their context
// dies. A leader that fails with its context's death is transparent
// to surviving waiters — one of them retries as the new leader.
// Successful computations are stored in both tiers.
func (s *Store) Do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Status, error) {
	for {
		// A dead caller is served nothing — not even a hit — so
		// cancellation behaves identically on hot and cold paths.
		if err := ctx.Err(); err != nil {
			return nil, Miss, err
		}
		s.mu.Lock()
		if body, ok := s.memGet(key); ok {
			s.stats.MemoryHits++
			s.stats.Hits++
			s.mu.Unlock()
			return body, MemoryHit, nil
		}
		if fl, ok := s.flights[key]; ok {
			s.stats.Coalesced++
			s.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err != nil {
					if isContextError(fl.err) && ctx.Err() == nil {
						// The leader's client hung up, not ours:
						// retry (and possibly lead) instead of
						// propagating a foreign cancellation.
						continue
					}
					return nil, Coalesced, fl.err
				}
				return fl.body, Coalesced, nil
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		// Lead. The flight is registered before the disk probe so
		// concurrent identical requests coalesce on that read too.
		fl := &flight{done: make(chan struct{})}
		s.flights[key] = fl
		s.mu.Unlock()

		body, status, err := s.lead(key, compute)

		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		fl.body, fl.err = body, err
		close(fl.done)
		return body, status, err
	}
}

// lead is the leader's half of Do: disk probe, then compute + store.
func (s *Store) lead(key string, compute func() ([]byte, error)) ([]byte, Status, error) {
	if body, ok := s.diskGet(key); ok {
		s.mu.Lock()
		s.memPut(key, body)
		s.stats.DiskHits++
		s.stats.Hits++
		s.mu.Unlock()
		return body, DiskHit, nil
	}
	s.mu.Lock()
	s.stats.Misses++
	s.stats.InFlight++
	s.mu.Unlock()
	body, err := compute()
	s.mu.Lock()
	s.stats.InFlight--
	s.mu.Unlock()
	if err != nil {
		return nil, Miss, err
	}
	s.Put(key, body)
	return body, Miss, nil
}

// Get looks key up in memory, then disk (promoting a disk hit),
// without deduplication. ok=false is a miss.
func (s *Store) Get(key string) (body []byte, st Status, ok bool) {
	s.mu.Lock()
	if body, ok := s.memGet(key); ok {
		s.stats.MemoryHits++
		s.stats.Hits++
		s.mu.Unlock()
		return body, MemoryHit, true
	}
	s.mu.Unlock()
	if body, ok := s.diskGet(key); ok {
		s.mu.Lock()
		s.memPut(key, body)
		s.stats.DiskHits++
		s.stats.Hits++
		s.mu.Unlock()
		return body, DiskHit, true
	}
	return nil, Miss, false
}

// Put stores body under key in both tiers. The disk write is
// best-effort: a failure is counted, never surfaced — the memory
// tier (and the caller's in-hand result) stay valid, mirroring the
// calibration cache's contract.
func (s *Store) Put(key string, body []byte) {
	s.mu.Lock()
	s.memPut(key, body)
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		if err := s.diskPut(key, body); err != nil {
			s.mu.Lock()
			s.stats.SaveErrors++
			s.mu.Unlock()
		}
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	st.MemoryBudget = s.cfg.MemoryBytes
	return st
}

// memGet/memPut require s.mu.

func (s *Store) memGet(key string) ([]byte, bool) {
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).body, true
}

func (s *Store) memPut(key string, body []byte) {
	if int64(len(body)) > s.cfg.MemoryBytes {
		// An entry that cannot fit even an empty cache would only
		// thrash the LRU; it lives on disk alone.
		return
	}
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		s.lru.MoveToFront(el)
	} else {
		s.byKey[key] = s.lru.PushFront(&entry{key: key, body: body})
		s.bytes += int64(len(body))
	}
	for s.bytes > s.cfg.MemoryBytes {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		e := s.lru.Remove(oldest).(*entry)
		delete(s.byKey, e.key)
		s.bytes -= int64(len(e.body))
		s.stats.Evictions++
	}
}

// envelope is the disk slot format: the payload plus the key it was
// stored under, so a slot that was renamed, truncated or corrupted
// reads as a miss instead of serving foreign bytes.
type envelope struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	// Body is the opaque payload (base64 on disk, so the envelope
	// holds any byte string, not just JSON).
	Body []byte `json:"body"`
}

const slotVersion = 1

// SlotPath returns key's file under dir — one slot per request
// fingerprint, mirroring timing.CacheFile's per-device-fingerprint
// scheme.
func SlotPath(dir, key string) string {
	return filepath.Join(dir, "res-"+key+".json")
}

// diskGet reads key's slot. Any failure — missing, unreadable,
// corrupt, wrong version, wrong embedded key — is a miss, never an
// error: the caller recomputes and the following Put repairs the
// slot.
func (s *Store) diskGet(key string) ([]byte, bool) {
	if s.cfg.Dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(SlotPath(s.cfg.Dir, key))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false
	}
	if env.Version != slotVersion || env.Key != key || len(env.Body) == 0 {
		return nil, false
	}
	return env.Body, true
}

// diskPut writes key's slot atomically: temp file in the same
// directory, then rename — a concurrent reader never observes a
// partial write and a crash never corrupts an existing slot.
func (s *Store) diskPut(key string, body []byte) error {
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	data, err := json.Marshal(envelope{Version: slotVersion, Key: key, Body: body})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := atomicfile.Write(SlotPath(s.cfg.Dir, key), data, 0o644); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
