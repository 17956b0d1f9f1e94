package ingest

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuperf/internal/atomicfile"
)

// ErrNotFound reports a submission id absent from the store (never
// admitted, expired, or evicted).
var ErrNotFound = errors.New("ingest: submission not found")

// StoreConfig bounds a submission store.
type StoreConfig struct {
	// MaxCount and MaxBytes budget the resident submissions; admitting
	// past either evicts least-recently-used entries first.
	MaxCount int
	MaxBytes int64
	// TTL expires submissions this long after CreatedAt.
	TTL time.Duration
	// Dir, when set, persists each submission as a JSON slot under the
	// calibration cache's write-temp-then-rename rules so a restarted
	// daemon keeps its submissions. Empty keeps the store in memory.
	Dir string
	// OnEvict runs after a submission leaves the store for any reason
	// (LRU, TTL, Delete) — the fleet uses it to deregister the
	// ephemeral kernel.
	OnEvict func(*Submission)
	// Now substitutes the clock in tests.
	Now func() time.Time
}

// Store is an LRU-bounded, TTL-expiring, optionally persistent set of
// accepted submissions.
type Store struct {
	cfg StoreConfig

	mu        sync.Mutex
	order     *list.List               // front = most recently used
	byID      map[string]*list.Element // value: *Submission
	bytes     int64
	evictions int64 // removals for any reason: LRU, TTL, Delete
}

// storeSlot is the on-disk envelope; the version gates future layout
// changes, and a corrupt or alien slot reads as a miss.
type storeSlot struct {
	Version    int         `json:"version"`
	Submission *Submission `json:"submission"`
}

const storeSlotVersion = 1

// NewStore opens a store, loading any persisted submissions from
// cfg.Dir (oldest first, so LRU order favors recent ones). Slots that
// fail to parse or have expired are discarded.
func NewStore(cfg StoreConfig) (*Store, error) {
	lim := Limits{MaxCount: cfg.MaxCount, MaxBytes: cfg.MaxBytes, TTL: cfg.TTL}.withDefaults()
	cfg.MaxCount, cfg.MaxBytes, cfg.TTL = lim.MaxCount, lim.MaxBytes, lim.TTL
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Store{cfg: cfg, order: list.New(), byID: make(map[string]*list.Element)}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: submission dir: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: submission dir: %w", err)
	}
	var subs []*Submission
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, IDPrefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(cfg.Dir, name))
		if err != nil {
			continue
		}
		var slot storeSlot
		if json.Unmarshal(raw, &slot) != nil || slot.Version != storeSlotVersion || slot.Submission == nil {
			os.Remove(filepath.Join(cfg.Dir, name)) // corrupt slot: drop, don't fail open
			continue
		}
		sub := slot.Submission
		if sub.ID != strings.TrimSuffix(name, ".json") {
			os.Remove(filepath.Join(cfg.Dir, name))
			continue
		}
		subs = append(subs, sub)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].CreatedAt.Before(subs[j].CreatedAt) })
	for _, sub := range subs {
		s.admit(sub, false)
	}
	s.expireLocked()
	return s, nil
}

// SlotPath names a submission's on-disk slot; empty when the store is
// memory-only.
func (s *Store) SlotPath(id string) string {
	if s.cfg.Dir == "" {
		return ""
	}
	return filepath.Join(s.cfg.Dir, id+".json")
}

func (sub *Submission) weight() int64 {
	w := int64(len(sub.Container))
	for range sub.Buffers {
		w += 64 // coarse spec overhead; the container bytes dominate
	}
	return w + 256
}

// Put admits a submission, persisting it and evicting as needed.
// Re-admitting an existing id refreshes its recency and TTL clock.
func (s *Store) Put(sub *Submission) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if el, ok := s.byID[sub.ID]; ok {
		el.Value = sub
		s.order.MoveToFront(el)
		return s.persist(sub)
	}
	if err := s.persist(sub); err != nil {
		return err
	}
	s.admit(sub, true)
	return nil
}

// admit inserts without persisting; evict trims to budget.
func (s *Store) admit(sub *Submission, evict bool) {
	if el, ok := s.byID[sub.ID]; ok {
		s.order.MoveToFront(el)
		return
	}
	s.byID[sub.ID] = s.order.PushFront(sub)
	s.bytes += sub.weight()
	if !evict {
		return
	}
	for (len(s.byID) > s.cfg.MaxCount || s.bytes > s.cfg.MaxBytes) && s.order.Len() > 1 {
		s.removeLocked(s.order.Back(), true)
	}
}

func (s *Store) persist(sub *Submission) error {
	path := s.SlotPath(sub.ID)
	if path == "" {
		return nil
	}
	raw, err := json.Marshal(storeSlot{Version: storeSlotVersion, Submission: sub})
	if err != nil {
		return err
	}
	if err := atomicfile.Write(path, raw, 0o600); err != nil {
		return fmt.Errorf("ingest: persist submission: %w", err)
	}
	return nil
}

// Get returns a live submission by id, refreshing its recency.
func (s *Store) Get(id string) (*Submission, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	el, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.order.MoveToFront(el)
	return el.Value.(*Submission), nil
}

// Delete removes a submission; false if it was not resident.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byID[id]
	if !ok {
		return false
	}
	s.removeLocked(el, true)
	return true
}

// List snapshots the live submissions, most recently used first.
func (s *Store) List() []*Submission {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	out := make([]*Submission, 0, len(s.byID))
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Submission))
	}
	return out
}

// Stats reports the resident count, byte weight and the cumulative
// number of submissions removed (LRU pressure, TTL expiry or
// explicit deletion).
func (s *Store) Stats() (count int, bytes int64, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return len(s.byID), s.bytes, s.evictions
}

// expireLocked drops every submission past its TTL.
func (s *Store) expireLocked() {
	now := s.cfg.Now()
	var dead []*list.Element
	for el := s.order.Front(); el != nil; el = el.Next() {
		if now.Sub(el.Value.(*Submission).CreatedAt) > s.cfg.TTL {
			dead = append(dead, el)
		}
	}
	for _, el := range dead {
		s.removeLocked(el, true)
	}
}

func (s *Store) removeLocked(el *list.Element, notify bool) {
	sub := el.Value.(*Submission)
	s.order.Remove(el)
	delete(s.byID, sub.ID)
	s.bytes -= sub.weight()
	if path := s.SlotPath(sub.ID); path != "" {
		os.Remove(path)
	}
	if notify {
		// Boot-time reload dedup (notify=false) is not an eviction; a
		// live submission leaving the store for any reason is.
		s.evictions++
	}
	if notify && s.cfg.OnEvict != nil {
		s.cfg.OnEvict(sub)
	}
}
