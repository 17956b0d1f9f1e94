package timing

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gpuperf/internal/atomicfile"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// calibrationJSON is the serialized form of a Calibration: the
// configuration it was measured on, the measured per-warp curves,
// and any synthetic global-memory benchmark results cached so far
// (keyed "blocks/threads/transactions").
type calibrationJSON struct {
	Version  int                       `json:"version"`
	Config   gpu.Config                `json:"config"`
	Instr    [isa.NumClasses][]float64 `json:"instr"`
	SharedTx []float64                 `json:"shared_tx"`
	Global   map[string]float64        `json:"global,omitempty"`
}

const persistVersion = 1

// MarshalJSON serializes the calibration curves.
func (c *Calibration) MarshalJSON() ([]byte, error) {
	c.mu.Lock()
	global := make(map[string]float64, len(c.gcache))
	for k, v := range c.gcache { //gpuperf:unordered map-to-map copy; the JSON encoder sorts the assembled map's keys
		global[fmt.Sprintf("%d/%d/%d", k.blocks, k.threads, k.trans)] = v
	}
	c.mu.Unlock()
	return json.Marshal(calibrationJSON{
		Version:  persistVersion,
		Config:   c.cfg,
		Instr:    c.instr,
		SharedTx: c.sharedTx,
		Global:   global,
	})
}

// SaveFile persists the calibration to path atomically: the JSON is
// written to a temporary file in the same directory and renamed into
// place, so a concurrent LoadCalibrationFile never observes a
// partial write and a crash never corrupts an existing cache.
// Safe to call while other goroutines use the calibration (the
// mutable global-bandwidth cache is snapshotted under its lock).
func (c *Calibration) SaveFile(path string) error {
	data, err := c.MarshalJSON()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(path, data, 0o644); err != nil {
		return fmt.Errorf("timing: save calibration: %w", err)
	}
	return nil
}

// CacheFile returns the calibration-cache path for cfg under the
// cache directory dir: one file per device fingerprint, so two
// configurations differing in any knob never share a file, while a
// renamed-but-identical configuration reuses its curves.
func CacheFile(dir string, cfg gpu.Config) string {
	return filepath.Join(dir, "cal-"+gpu.Fingerprint(cfg)+".json")
}

// LoadCachedCalibration looks up cfg's entry in the cache directory.
// A missing, unreadable, corrupt or mismatched file — the embedded
// configuration's fingerprint disagreeing with cfg's, e.g. after a
// manual rename of cache files — is a cache miss (nil, false), never
// an error: the caller falls back to a fresh calibration.
func LoadCachedCalibration(dir string, cfg gpu.Config) (*Calibration, bool) {
	cal, err := LoadCalibrationFile(CacheFile(dir, cfg))
	if err != nil || gpu.Fingerprint(cal.Config()) != gpu.Fingerprint(cfg) {
		return nil, false
	}
	return cal, true
}

// SaveCachedCalibration writes c into its fingerprint slot under dir,
// creating the directory if needed. Atomic like SaveFile.
func (c *Calibration) SaveCachedCalibration(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("timing: save calibration: %w", err)
	}
	return c.SaveFile(CacheFile(dir, c.cfg))
}

// LoadCalibrationFile reads a calibration cache written by SaveFile.
func LoadCalibrationFile(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("timing: load calibration: %w", err)
	}
	return LoadCalibration(data)
}

// LoadCalibration reconstructs a Calibration from MarshalJSON
// output, validating the embedded configuration and curve shapes.
func LoadCalibration(data []byte) (*Calibration, error) {
	var p calibrationJSON
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("timing: %w", err)
	}
	if p.Version != persistVersion {
		return nil, fmt.Errorf("timing: unsupported calibration version %d", p.Version)
	}
	if err := p.Config.Validate(); err != nil {
		return nil, fmt.Errorf("timing: embedded config: %w", err)
	}
	want := p.Config.MaxWarpsPerSM + 1
	if len(p.SharedTx) != want {
		return nil, fmt.Errorf("timing: shared curve has %d points, want %d", len(p.SharedTx), want)
	}
	c := &Calibration{cfg: p.Config, gcache: map[gkey]float64{}}
	for cls := range p.Instr {
		if len(p.Instr[cls]) != want {
			return nil, fmt.Errorf("timing: class %d curve has %d points, want %d",
				cls, len(p.Instr[cls]), want)
		}
		for w := 1; w < want; w++ {
			if p.Instr[cls][w] <= 0 {
				return nil, fmt.Errorf("timing: class %d curve not positive at %d warps", cls, w)
			}
		}
		c.instr[cls] = p.Instr[cls]
	}
	for w := 1; w < want; w++ {
		if p.SharedTx[w] <= 0 {
			return nil, fmt.Errorf("timing: shared curve not positive at %d warps", w)
		}
	}
	c.sharedTx = p.SharedTx
	for k, v := range p.Global { //gpuperf:unordered map-to-map copy; cache lookups are keyed, never ordered
		var g gkey
		if _, err := fmt.Sscanf(k, "%d/%d/%d", &g.blocks, &g.threads, &g.trans); err != nil {
			return nil, fmt.Errorf("timing: bad global cache key %q", k)
		}
		c.gcache[g] = v
	}
	return c, nil
}
