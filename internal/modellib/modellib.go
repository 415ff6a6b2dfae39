// Package modellib implements EVOp's Model Library (ML, paper Section
// IV-D): the registry of VM images that cloud instances are launched
// from. Domain specialists publish two kinds of image:
//
//   - streamlined execution bundles: "a VM image optimised to run a fine
//     tuned set of models that are exposed as web services and equipped
//     with all required data", stored per catchment and model, versioned
//     so an image "could be updated to include more historical data or to
//     adjust the implementation of a model in some way";
//   - generic incubator images used as a testing ground for experimental
//     models, which boot slower but accept any model.
package modellib

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"evop/internal/cloud"
)

// ErrBadEntry indicates an invalid library entry.
var ErrBadEntry = errors.New("modellib: invalid entry")

// Entry is one published image plus its provenance.
type Entry struct {
	// Image is the launchable VM image.
	Image cloud.Image `json:"image"`
	// ModelName is the model the bundle runs ("topmodel", "fuse-1211");
	// empty for incubator images.
	ModelName string `json:"modelName"`
	// CatchmentID is the catchment the bundle is calibrated for; empty
	// for incubator images.
	CatchmentID string `json:"catchmentId"`
	// Version is assigned by the library, starting at 1 per
	// (model, catchment) pair.
	Version int `json:"version"`
	// CalibratedParams records the offline calibration result baked into
	// the bundle, as opaque JSON.
	CalibratedParams json.RawMessage `json:"calibratedParams,omitempty"`
	// PublishedAt records when the entry was added.
	PublishedAt time.Time `json:"publishedAt"`
	// Description is free text from the publishing specialist.
	Description string `json:"description,omitempty"`
}

// Library is the thread-safe image registry.
type Library struct {
	mu sync.RWMutex
	// streamlined holds version lineages keyed by model@catchment.
	streamlined map[string][]Entry
	// incubators holds generic images in publish order.
	incubators []Entry
	now        func() time.Time
}

// New returns an empty library. now supplies publication timestamps
// (time.Now if nil).
func New(now func() time.Time) *Library {
	if now == nil {
		now = time.Now
	}
	return &Library{streamlined: make(map[string][]Entry), now: now}
}

// PublishStreamlined adds a new version of a calibrated execution bundle
// and returns the stored entry (with Version and Image.ID assigned).
func (l *Library) PublishStreamlined(modelName, catchmentID string, params any, bootDelay time.Duration, description string) (Entry, error) {
	if modelName == "" || catchmentID == "" {
		return Entry{}, fmt.Errorf("model %q catchment %q: %w", modelName, catchmentID, ErrBadEntry)
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return Entry{}, fmt.Errorf("encoding calibrated params: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := modelName + "@" + catchmentID
	version := len(l.streamlined[key]) + 1
	e := Entry{
		Image: cloud.Image{
			ID:             modelName + "-" + catchmentID + "-v" + strconv.Itoa(version),
			Name:           modelName + " bundle for " + catchmentID,
			Kind:           cloud.Streamlined,
			ExtraBootDelay: bootDelay,
			Services:       []string{modelName},
		},
		ModelName:        modelName,
		CatchmentID:      catchmentID,
		Version:          version,
		CalibratedParams: raw,
		PublishedAt:      l.now(),
		Description:      description,
	}
	l.streamlined[key] = append(l.streamlined[key], e)
	return e, nil
}

// PublishIncubator adds a generic incubator image. Incubators carry a
// provisioning delay since models are installed at runtime.
func (l *Library) PublishIncubator(name string, provisionDelay time.Duration, description string) (Entry, error) {
	if name == "" {
		return Entry{}, fmt.Errorf("empty incubator name: %w", ErrBadEntry)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Image: cloud.Image{
			ID:             "incubator-" + name + "-v" + strconv.Itoa(len(l.incubators)+1),
			Name:           "Incubator " + name,
			Kind:           cloud.Incubator,
			ExtraBootDelay: provisionDelay,
		},
		PublishedAt: l.now(),
		Description: description,
	}
	l.incubators = append(l.incubators, e)
	return e, nil
}

// List returns every entry (all streamlined versions plus incubators)
// sorted by image ID for stable presentation.
func (l *Library) List() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Entry
	for _, lineage := range l.streamlined {
		out = append(out, lineage...)
	}
	out = append(out, l.incubators...)
	sort.Slice(out, func(i, j int) bool { return out[i].Image.ID < out[j].Image.ID })
	return out
}
