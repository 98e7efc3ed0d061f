// Package store is the durable, content-addressed result store behind
// cmd/dmtsweep's resumable sweeps. Each entry maps a canonical
// configuration key (sim.CanonicalKey: the normalized, result-determining
// configuration subset) to one completed simulation's result payload,
// wrapped in an envelope carrying a SHA-256 checksum and the key text
// itself. Completed cells therefore survive an interrupted sweep: a re-run
// re-reads the store and simulates only the cells that are missing, and
// any later request for a known configuration costs one file read instead
// of a simulation.
//
// Integrity contract: Get verifies the envelope checksum (and the embedded
// key) on every read. A corrupt, truncated, or mismatched entry is treated
// as a miss — it is removed so the cell re-simulates and overwrites it —
// and is never returned as a result. Writes are atomic (temp file +
// rename), so a crash mid-Put leaves either the old entry or none, never a
// torn one. Layout and semantics are documented in DESIGN.md §11.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"dmt/internal/obs"
)

// envelopeVersion tags the on-disk schema; bumping it orphans (and thereby
// invalidates) every existing entry.
const envelopeVersion = 1

// envelope is the on-disk form of one entry. Payload is the result JSON
// exactly as the caller produced it; Checksum is the SHA-256 of
// those payload bytes; Key is the canonical key text, kept as a collision
// and misfile guard (the filename is only a hash of it).
type envelope struct {
	Version  int             `json:"version"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Store is a directory of checksummed result entries, addressed by the
// canonical configuration key. Safe for concurrent use by one process;
// cross-process writers are safe against each other thanks to atomic
// renames (last writer wins with an identical payload — entries are pure
// functions of their key).
type Store struct {
	dir string
	reg *obs.Registry
	seq atomic.Uint64 // unique temp-file suffix within the process
}

// Open creates (if needed) and returns the store rooted at dir. reg
// receives the store.* counters; nil uses obs.Default.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if reg == nil {
		reg = obs.Default
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir, reg: reg}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// HashKey is the content address of a canonical key: its SHA-256 in hex.
// It names the entry file, sharded by the first two hex digits so huge
// sweeps do not pile every entry into one directory.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path maps a key to its entry file: dir/<hh>/<hash>.json.
func (s *Store) path(key string) string {
	h := HashKey(key)
	return filepath.Join(s.dir, h[:2], h+".json")
}

// Get returns the stored payload for key, or ok=false on a miss. Any
// integrity failure — unreadable file, bad JSON, version or key mismatch,
// checksum mismatch — counts as a miss: the entry is removed so the caller
// re-simulates and overwrites it, and store.corrupt records the event.
// Corruption is never an error; errors are reserved for the caller's own
// misuse (none today).
func (s *Store) Get(key string) (json.RawMessage, bool) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		s.reg.Add("store.misses", 1)
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, s.corrupt(key, fmt.Sprintf("undecodable envelope: %v", err))
	}
	switch {
	case env.Version != envelopeVersion:
		return nil, s.corrupt(key, fmt.Sprintf("envelope version %d, want %d", env.Version, envelopeVersion))
	case env.Key != key:
		return nil, s.corrupt(key, "entry key does not match its address")
	case env.Checksum != payloadChecksum(env.Payload):
		return nil, s.corrupt(key, "payload checksum mismatch")
	case len(env.Payload) == 0:
		return nil, s.corrupt(key, "empty payload")
	}
	s.reg.Add("store.hits", 1)
	return env.Payload, true
}

// corrupt quarantines a bad entry (removes it so the next Put rebuilds it)
// and reports a miss.
func (s *Store) corrupt(key, reason string) bool {
	_ = os.Remove(s.path(key))
	s.reg.Add("store.corrupt", 1)
	s.reg.Add("store.misses", 1)
	_ = reason // kept for debuggability at call sites; not logged here
	return false
}

// Put durably records payload under key, overwriting any existing entry.
// The write is atomic: the envelope lands in a temp file in the final
// directory and is renamed into place, so readers (and a crash at any
// instant) see either the previous entry or the complete new one.
func (s *Store) Put(key string, payload json.RawMessage) error {
	if len(payload) == 0 {
		return fmt.Errorf("store: refusing to record an empty payload for %q", key)
	}
	env := envelope{
		Version:  envelopeVersion,
		Key:      key,
		Checksum: payloadChecksum(payload),
		Payload:  payload,
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: encoding entry for %q: %w", key, err)
	}
	final := s.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: sharding dir for %q: %w", key, err)
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", final, os.Getpid(), s.seq.Add(1))
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("store: writing entry for %q: %w", key, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: committing entry for %q: %w", key, err)
	}
	s.reg.Add("store.puts", 1)
	s.reg.Add("store.put_bytes", uint64(len(raw)))
	return nil
}

// Len counts the entries currently on disk (a full directory walk — meant
// for CLI summaries and tests, not hot paths).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// payloadChecksum is the hex SHA-256 of the payload bytes.
func payloadChecksum(p json.RawMessage) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}
