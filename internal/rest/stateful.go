package rest

import (
	"net/http"
	"strconv"
	"sync"
)

// StatefulService is the transaction-oriented comparator for experiment
// E3: it mimics the SOAP interaction style the paper rejects, where "high
// communication and operation overheads [are needed] in order to maintain
// transaction state on the server".
//
// Protocol (JSON over HTTP for comparability; the statefulness, not the
// envelope encoding, is what matters):
//
//	POST /begin              -> {"txn": "<id>"}        open a transaction
//	POST /step?txn=<id>&v=N  -> {"acc": <sum so far>}  accumulate server-side
//	POST /commit?txn=<id>    -> {"result": <sum>}      close and return
//
// State lives only in this instance's memory. A replacement instance
// returns 404 for transactions begun elsewhere — the failover loss the
// stateless Handler does not suffer.
type StatefulService struct {
	mu   sync.Mutex
	seq  int
	txns map[string]float64
}

var _ http.Handler = (*StatefulService)(nil)

// NewStatefulService returns an empty transaction service.
func NewStatefulService() *StatefulService {
	return &StatefulService{txns: make(map[string]float64)}
}

// ServeHTTP implements http.Handler.
func (s *StatefulService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, r.Method+" not supported")
		return
	}
	switch r.URL.Path {
	case "/begin":
		s.mu.Lock()
		s.seq++
		id := "txn" + strconv.Itoa(s.seq)
		s.txns[id] = 0
		s.mu.Unlock()
		WriteJSON(w, http.StatusOK, map[string]string{"txn": id})
	case "/step":
		id := r.URL.Query().Get("txn")
		v, err := strconv.ParseFloat(r.URL.Query().Get("v"), 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad v")
			return
		}
		s.mu.Lock()
		acc, ok := s.txns[id]
		if ok {
			acc += v
			s.txns[id] = acc
		}
		s.mu.Unlock()
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown transaction "+id)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]float64{"acc": acc})
	case "/commit":
		id := r.URL.Query().Get("txn")
		s.mu.Lock()
		acc, ok := s.txns[id]
		delete(s.txns, id)
		s.mu.Unlock()
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown transaction "+id)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]float64{"result": acc})
	default:
		WriteError(w, http.StatusNotFound, "unknown operation "+r.URL.Path)
	}
}

// StatelessCompute is the REST counterpart for E3: the same accumulation
// expressed statelessly — the client carries all state, the server just
// computes:
//
//	POST /sum?vs=1,2,3 -> {"result": 6}
//
// Any replica can serve any request at any point in the sequence.
type StatelessCompute struct{}

var _ http.Handler = StatelessCompute{}

// ServeHTTP implements http.Handler.
func (StatelessCompute) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/sum" {
		WriteError(w, http.StatusNotFound, "POST /sum only")
		return
	}
	sum := 0.0
	raw := r.URL.Query().Get("vs")
	if raw != "" {
		for _, part := range splitComma(raw) {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				WriteError(w, http.StatusBadRequest, "bad value "+part)
				return
			}
			sum += v
		}
	}
	WriteJSON(w, http.StatusOK, map[string]float64{"result": sum})
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
