package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStoreCRUD(t *testing.T) {
	s := NewStore()
	r := Resource{ID: "eden-rain", Kind: "datasets", Attributes: map[string]any{"unit": "mm"}}
	if err := s.Put(r); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("datasets", "eden-rain")
	if err != nil || got.Attributes["unit"] != "mm" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := s.Get("datasets", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing err = %v", err)
	}
	r.Attributes["unit"] = "cm"
	if err := s.Put(r); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, _ = s.Get("datasets", "eden-rain")
	if got.Attributes["unit"] != "cm" {
		t.Fatal("Put did not replace")
	}
	if err := s.Delete("datasets", "eden-rain"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete("datasets", "eden-rain"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete err = %v", err)
	}
	if err := s.Put(Resource{Kind: "datasets"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Put without ID err = %v, want ErrBadRequest", err)
	}
}

func TestStoreUpsertReportsCreation(t *testing.T) {
	s := NewStore()
	created, err := s.Upsert(Resource{ID: "rain", Kind: "datasets"})
	if err != nil || !created {
		t.Fatalf("first Upsert = %v, %v; want created", created, err)
	}
	created, err = s.Upsert(Resource{ID: "rain", Kind: "datasets"})
	if err != nil || created {
		t.Fatalf("second Upsert = %v, %v; want replace", created, err)
	}
	if _, err := s.Upsert(Resource{ID: "rain"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Upsert without kind err = %v, want ErrBadRequest", err)
	}
}

func TestStatusFor(t *testing.T) {
	tests := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("x: %w", ErrBadRequest), http.StatusBadRequest},
		{fmt.Errorf("x: %w", ErrNotFound), http.StatusNotFound},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range tests {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestStoreListSorted(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"c", "a", "b"} {
		s.Put(Resource{ID: id, Kind: "models"})
	}
	got := s.List("models")
	if len(got) != 3 || got[0].ID != "a" || got[2].ID != "c" {
		t.Fatalf("List = %+v", got)
	}
	if len(s.List("nothing")) != 0 {
		t.Fatal("List unknown kind should be empty")
	}
}

func do(t *testing.T, srv *httptest.Server, method, path string, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestHandlerHTTP(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewStore()))
	t.Cleanup(srv.Close)

	code, _ := do(t, srv, http.MethodPut, "/api/datasets/rain", `{"attributes":{"unit":"mm"}}`)
	if code != http.StatusCreated {
		t.Fatalf("creating PUT status = %d, want 201", code)
	}
	code, _ = do(t, srv, http.MethodPut, "/api/datasets/rain", `{"attributes":{"unit":"mm"}}`)
	if code != http.StatusOK {
		t.Fatalf("replacing PUT status = %d, want 200", code)
	}
	code, body := do(t, srv, http.MethodGet, "/api/datasets/rain", "")
	if code != http.StatusOK || !strings.Contains(body, `"unit":"mm"`) {
		t.Fatalf("GET = %d %s", code, body)
	}
	code, body = do(t, srv, http.MethodGet, "/api/datasets", "")
	if code != http.StatusOK || !strings.Contains(body, "rain") {
		t.Fatalf("LIST = %d %s", code, body)
	}
	code, _ = do(t, srv, http.MethodDelete, "/api/datasets/rain", "")
	if code != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", code)
	}
	code, _ = do(t, srv, http.MethodGet, "/api/datasets/rain", "")
	if code != http.StatusNotFound {
		t.Fatalf("GET after delete = %d", code)
	}
}

func TestHandlerErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewStore()))
	t.Cleanup(srv.Close)
	tests := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/api/", "", http.StatusNotFound},
		{http.MethodPut, "/api/datasets/x", "{bad json", http.StatusBadRequest},
		{http.MethodPost, "/api/datasets/x", "{}", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/datasets/ghost", "", http.StatusNotFound},
		{http.MethodPut, "/api/datasets", "{}", http.StatusMethodNotAllowed},
	}
	for _, tc := range tests {
		code, _ := do(t, srv, tc.method, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, code, tc.want)
		}
	}
}

// TestHandlerServesHEAD: HEAD reads a collection or an item as GET does.
func TestHandlerServesHEAD(t *testing.T) {
	store := NewStore()
	if err := store.Put(Resource{ID: "rain", Kind: "datasets"}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(store)
	for target, want := range map[string]int{
		"/api/datasets":       http.StatusOK,
		"/api/datasets/rain":  http.StatusOK,
		"/api/datasets/ghost": http.StatusNotFound,
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodHead, target, nil))
		if w.Code != want {
			t.Errorf("HEAD %s = %d, want %d", target, w.Code, want)
		}
	}
}

func TestHandler405CarriesAllowHeader(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewStore()))
	t.Cleanup(srv.Close)
	tests := []struct {
		path      string
		wantAllow string
	}{
		{"/api/datasets", "GET, HEAD"},
		{"/api/datasets/x", "GET, HEAD, PUT, DELETE"},
	}
	for _, tc := range tests {
		req, err := http.NewRequest(http.MethodPost, srv.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("POST %s Allow = %q, want %q", tc.path, got, tc.wantAllow)
		}
	}
}

func TestStatelessAnyReplicaServes(t *testing.T) {
	// The same request sequence served by alternating replicas completes
	// correctly — no shared state needed.
	a := httptest.NewServer(StatelessCompute{})
	b := httptest.NewServer(StatelessCompute{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)

	servers := []*httptest.Server{a, b}
	vals := []string{"1", "1,2", "1,2,3", "1,2,3,4"}
	var last float64
	for i, vs := range vals {
		srv := servers[i%2]
		resp, err := http.Post(srv.URL+"/sum?vs="+vs, "application/json", nil)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var out map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		last = out["result"]
	}
	if last != 10 {
		t.Fatalf("final sum = %v, want 10", last)
	}
}

func TestStatefulLosesTransactionsOnFailover(t *testing.T) {
	a := httptest.NewServer(NewStatefulService())
	b := httptest.NewServer(NewStatefulService()) // the "replacement"
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)

	// Begin on A.
	resp, err := http.Post(a.URL+"/begin", "application/json", nil)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	var began map[string]string
	json.NewDecoder(resp.Body).Decode(&began)
	resp.Body.Close()
	txn := began["txn"]
	if txn == "" {
		t.Fatal("no txn id")
	}

	// Steps on A succeed.
	resp, err = http.Post(a.URL+"/step?txn="+txn+"&v=5", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("step on A: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	// A "fails"; the client is redirected to B mid-transaction.
	code := post(t, b.URL+"/step?txn="+txn+"&v=7")
	if code != http.StatusNotFound {
		t.Fatalf("step on replacement = %d, want 404 (state lost)", code)
	}
	if code := post(t, b.URL+"/commit?txn="+txn); code != http.StatusNotFound {
		t.Fatalf("commit on replacement = %d, want 404", code)
	}
}

func post(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// openTxns counts the live server-side transactions.
func openTxns(s *StatefulService) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txns)
}

func TestStatefulHappyPath(t *testing.T) {
	svc := NewStatefulService()
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	resp, _ := http.Post(srv.URL+"/begin", "application/json", nil)
	var began map[string]string
	json.NewDecoder(resp.Body).Decode(&began)
	resp.Body.Close()
	txn := began["txn"]

	for _, v := range []int{2, 3, 5} {
		if code := post(t, fmt.Sprintf("%s/step?txn=%s&v=%d", srv.URL, txn, v)); code != http.StatusOK {
			t.Fatalf("step = %d", code)
		}
	}
	if n := openTxns(svc); n != 1 {
		t.Fatalf("open txns = %d", n)
	}
	resp, _ = http.Post(srv.URL+"/commit?txn="+txn, "application/json", nil)
	var out map[string]float64
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["result"] != 10 {
		t.Fatalf("result = %v, want 10", out["result"])
	}
	if openTxns(svc) != 0 {
		t.Fatal("transaction not cleared after commit")
	}
}

func TestStatefulErrors(t *testing.T) {
	srv := httptest.NewServer(NewStatefulService())
	t.Cleanup(srv.Close)
	if code := post(t, srv.URL+"/step?txn=ghost&v=1"); code != http.StatusNotFound {
		t.Fatalf("ghost step = %d", code)
	}
	if code := post(t, srv.URL+"/step?txn=ghost&v=abc"); code != http.StatusBadRequest {
		t.Fatalf("bad v = %d", code)
	}
	if code := post(t, srv.URL+"/nuke"); code != http.StatusNotFound {
		t.Fatalf("unknown op = %d", code)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/begin", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET begin = %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestStatelessComputeErrors(t *testing.T) {
	srv := httptest.NewServer(StatelessCompute{})
	t.Cleanup(srv.Close)
	if code := post(t, srv.URL+"/sum?vs=1,bad"); code != http.StatusBadRequest {
		t.Fatalf("bad vs = %d", code)
	}
	if code := post(t, srv.URL+"/other"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", code)
	}
	// Empty vs sums to zero.
	resp, _ := http.Post(srv.URL+"/sum", "application/json", nil)
	var out map[string]float64
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["result"] != 0 {
		t.Fatalf("empty sum = %v", out["result"])
	}
}

func TestSplitComma(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"1", []string{"1"}},
		{"1,2,3", []string{"1", "2", "3"}},
		{",1,,2,", []string{"1", "2"}},
	}
	for _, tc := range tests {
		got := splitComma(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitComma(%q) = %v", tc.in, got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitComma(%q)[%d] = %q", tc.in, i, got[i])
			}
		}
	}
}
