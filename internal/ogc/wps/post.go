package wps

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// This file adds the WPS document (XML POST) binding alongside the KVP
// GET binding: clients POST a wps:Execute document, as most OGC tooling
// does. Both bindings reach the same process registry.

// xmlExecuteRequest is the accepted subset of a wps:Execute document.
type xmlExecuteRequest struct {
	XMLName    xml.Name `xml:"Execute"`
	Identifier string   `xml:"Identifier"`
	Inputs     []struct {
		Identifier string `xml:"Identifier"`
		Data       struct {
			LiteralData string `xml:"LiteralData"`
		} `xml:"Data"`
	} `xml:"DataInputs>Input"`
	// StoreExecuteResponse requests asynchronous execution.
	StoreExecuteResponse bool `xml:"storeExecuteResponse,attr"`
}

// parseExecuteDocument decodes a wps:Execute XML document into a process
// identifier, inputs, and the async flag. Namespace prefixes are accepted
// on any element (encoding/xml matches local names).
func parseExecuteDocument(r io.Reader) (id string, inputs map[string]Value, async bool, err error) {
	var doc xmlExecuteRequest
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		// Both wraps matter: ErrBadRequest classifies the failure, and the
		// decode error itself must survive so servePost can tell an
		// oversized body (http.MaxBytesError → 413) from malformed XML.
		return "", nil, false, fmt.Errorf("parsing execute document: %w: %w", ErrBadRequest, err)
	}
	id = strings.TrimSpace(doc.Identifier)
	if id == "" {
		return "", nil, false, fmt.Errorf("execute document has no process identifier: %w", ErrBadRequest)
	}
	inputs = make(map[string]Value, len(doc.Inputs))
	for i, in := range doc.Inputs {
		key := strings.TrimSpace(in.Identifier)
		if key == "" {
			return "", nil, false, fmt.Errorf("input %d has no identifier: %w", i, ErrBadRequest)
		}
		inputs[key] = Literal(in.Data.LiteralData)
	}
	return id, inputs, doc.StoreExecuteResponse, nil
}

// maxExecuteBytes bounds a wps:Execute document. Process inputs are
// short literals; a megabyte is far past any legitimate document.
const maxExecuteBytes = 1 << 20

// servePost handles the XML POST binding. The body is bounded before
// decoding: an oversized document answers 413 instead of being read to
// the end.
func (s *Service) servePost(w http.ResponseWriter, r *http.Request) {
	id, inputs, async, err := parseExecuteDocument(http.MaxBytesReader(w, r.Body, maxExecuteBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeException(w, http.StatusRequestEntityTooLarge, "InvalidRequest",
				fmt.Sprintf("execute document exceeds %d bytes", tooBig.Limit))
			return
		}
		writeException(w, http.StatusBadRequest, "InvalidParameterValue", err.Error())
		return
	}
	s.executeParsed(w, r.Context(), id, inputs, async)
}
