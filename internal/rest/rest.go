// Package rest implements EVOp's RESTful asset interfaces (paper Section
// IV-B): every system resource — datasets, models, catchments, sensors,
// model runs — is addressable via a uniform, stateless JSON interface.
//
// The package also contains a deliberately *stateful*, transaction-
// oriented comparator service (StatefulService) modelling the SOAP style
// the paper argues against: it keeps per-client conversation state on the
// server, so a failed-over replacement server loses in-flight
// transactions. Experiment E3 uses the pair to reproduce the paper's
// claim that statelessness buys throughput, graceful failover and
// load-balancing freedom.
package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Common errors.
var (
	// ErrNotFound indicates an unknown resource.
	ErrNotFound = errors.New("rest: resource not found")
	// ErrBadRequest indicates an invalid resource (missing ID or kind).
	ErrBadRequest = errors.New("rest: invalid resource")
)

// Resource is any addressable asset in the observatory.
type Resource struct {
	// ID is unique within the collection.
	ID string `json:"id"`
	// Kind is the collection name ("datasets", "models", ...).
	Kind string `json:"kind"`
	// Attributes carries the resource body.
	Attributes map[string]any `json:"attributes,omitempty"`
}

// Store is a thread-safe resource collection set.
type Store struct {
	mu    sync.RWMutex
	items map[string]map[string]Resource // kind -> id -> resource
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{items: make(map[string]map[string]Resource)}
}

// Put inserts or replaces a resource.
func (s *Store) Put(r Resource) error {
	_, err := s.Upsert(r)
	return err
}

// Upsert inserts or replaces a resource and reports whether it was newly
// created (true) or replaced an existing one (false).
func (s *Store) Upsert(r Resource) (created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(r)
}

func (s *Store) putLocked(r Resource) (created bool, err error) {
	if r.ID == "" || r.Kind == "" {
		return false, fmt.Errorf("resource needs id and kind: %w", ErrBadRequest)
	}
	kind, ok := s.items[r.Kind]
	if !ok {
		kind = make(map[string]Resource)
		s.items[r.Kind] = kind
	}
	_, existed := kind[r.ID]
	kind[r.ID] = r
	return !existed, nil
}

// Get fetches one resource.
func (s *Store) Get(kind, id string) (Resource, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.items[kind][id]
	if !ok {
		return Resource{}, fmt.Errorf("%s/%s: %w", kind, id, ErrNotFound)
	}
	return r, nil
}

// List returns a kind's resources sorted by ID.
func (s *Store) List(kind string) []Resource {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Resource, 0, len(s.items[kind]))
	for _, r := range s.items[kind] {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes a resource.
func (s *Store) Delete(kind, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[kind][id]; !ok {
		return fmt.Errorf("%s/%s: %w", kind, id, ErrNotFound)
	}
	delete(s.items[kind], id)
	return nil
}

// Handler serves the store as a stateless JSON API:
//
//	GET    /api/<kind>           list
//	GET    /api/<kind>/<id>      fetch
//	PUT    /api/<kind>/<id>      create/replace
//	DELETE /api/<kind>/<id>      delete
//
// Every request is self-contained; no server-side session exists, so any
// replica can serve any request — the property the LB exploits.
type Handler struct {
	store *Store
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps a store.
func NewHandler(store *Store) *Handler { return &Handler{store: store} }

// WriteJSON encodes v as a JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError encodes a JSON error body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// StatusFor maps the package's error sentinels to HTTP statuses:
// validation failures are 400, unknown resources 404; anything else is
// a 500.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// maxResourceBytes bounds a PUT resource body: asset metadata is small;
// bulk payloads belong on the dataset upload endpoint.
const maxResourceBytes = 1 << 20

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/api/")
	parts := strings.SplitN(strings.Trim(path, "/"), "/", 2)
	if parts[0] == "" {
		WriteError(w, http.StatusNotFound, "missing collection")
		return
	}
	kind := parts[0]
	id := ""
	if len(parts) == 2 {
		id = parts[1]
	}
	read := r.Method == http.MethodGet || r.Method == http.MethodHead
	switch {
	case read && id == "":
		WriteJSON(w, http.StatusOK, h.store.List(kind))
	case read:
		res, err := h.store.Get(kind, id)
		if err != nil {
			WriteError(w, StatusFor(err), err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, res)
	case r.Method == http.MethodPut && id != "":
		var res Resource
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResourceBytes)).Decode(&res); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				WriteError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("resource body exceeds %d bytes", tooBig.Limit))
				return
			}
			WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		res.Kind, res.ID = kind, id
		created, err := h.store.Upsert(res)
		if err != nil {
			WriteError(w, StatusFor(err), err.Error())
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		WriteJSON(w, status, res)
	case r.Method == http.MethodDelete && id != "":
		if err := h.store.Delete(kind, id); err != nil {
			WriteError(w, StatusFor(err), err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		allow := "GET, HEAD"
		if id != "" {
			allow = "GET, HEAD, PUT, DELETE"
		}
		w.Header().Set("Allow", allow)
		WriteError(w, http.StatusMethodNotAllowed, r.Method+" not supported")
	}
}
