package server

// The lderr → HTTP mapping: every typed error of the engine's taxonomy
// maps to a stable machine-readable code and an HTTP status, rendered as
//
//	{"error": {"code": "...", "message": "...", ...details}}
//
// The table (documented in DESIGN.md §13 and asserted exhaustively by
// errors_test.go):
//
//	ParseError          400  parse_error           line, col
//	VetError            422  vet_error             diagnostics
//	InstantiationError  422  instantiation_error   builtin
//	FlounderError       422  flounder_error
//	LimitError          413  limit_error           limit
//	MemBudgetError      413  mem_budget_error      budget
//	DeadlineExceeded    504  deadline_exceeded
//	Canceled            499  canceled              (nginx convention)
//	unknown database    404  not_found
//	ArgError            400  bad_request           (prepared Exec arguments, a retracted program fact)
//	malformed request   400  bad_request
//	body over 16 MiB    413  request_too_large     limit
//	admin disabled      403  admin_disabled
//	anything else       500  internal
//
// DeadlineExceeded is matched before Canceled: both are ContextErrors, and
// a context can be both canceled and past its deadline — the deadline is
// the more specific report.

import (
	"encoding/json"
	"errors"
	"net/http"

	"ldl1"
	"ldl1/internal/eval"
	"ldl1/internal/lderr"
)

// StatusClientClosedRequest is the nonstandard status for a request whose
// context was canceled (client went away, or the drain deadline fired);
// nginx's 499, since no standard code says "the caller stopped waiting".
const StatusClientClosedRequest = 499

// ErrorInfo is the JSON error payload.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Detail fields, populated per code.
	Line        int               `json:"line,omitempty"`
	Col         int               `json:"col,omitempty"`
	Limit       int               `json:"limit,omitempty"`
	Budget      int64             `json:"budget,omitempty"`
	Builtin     string            `json:"builtin,omitempty"`
	Diagnostics []ldl1.Diagnostic `json:"diagnostics,omitempty"`
}

type errorBody struct {
	Error ErrorInfo `json:"error"`
}

// MapError maps an error from the engine to its HTTP status and payload.
func MapError(err error) (int, ErrorInfo) {
	var parseErr *ldl1.ParseError
	var vetErr *ldl1.VetError
	var instErr *ldl1.InstantiationError
	var flErr *eval.FlounderError
	var limitErr *ldl1.LimitError
	var memErr *ldl1.MemBudgetError
	var argErr *lderr.ArgError
	switch {
	case errors.As(err, &parseErr):
		return http.StatusBadRequest, ErrorInfo{
			Code: "parse_error", Message: parseErr.Error(),
			Line: parseErr.Line, Col: parseErr.Col,
		}
	case errors.As(err, &argErr):
		return http.StatusBadRequest, ErrorInfo{
			Code: "bad_request", Message: argErr.Error(),
		}
	case errors.As(err, &vetErr):
		return http.StatusUnprocessableEntity, ErrorInfo{
			Code: "vet_error", Message: vetErr.Error(),
			Diagnostics: vetErr.Diagnostics,
		}
	case errors.As(err, &instErr):
		return http.StatusUnprocessableEntity, ErrorInfo{
			Code: "instantiation_error", Message: instErr.Error(),
			Builtin: instErr.Builtin,
		}
	case errors.As(err, &flErr):
		return http.StatusUnprocessableEntity, ErrorInfo{
			Code: "flounder_error", Message: flErr.Error(),
		}
	case errors.As(err, &limitErr):
		return http.StatusRequestEntityTooLarge, ErrorInfo{
			Code: "limit_error", Message: limitErr.Error(),
			Limit: limitErr.Limit,
		}
	case errors.As(err, &memErr):
		return http.StatusRequestEntityTooLarge, ErrorInfo{
			Code: "mem_budget_error", Message: memErr.Error(),
			Budget: memErr.Budget,
		}
	case errors.Is(err, ldl1.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorInfo{
			Code: "deadline_exceeded", Message: err.Error(),
		}
	case errors.Is(err, ldl1.ErrCanceled):
		return StatusClientClosedRequest, ErrorInfo{
			Code: "canceled", Message: err.Error(),
		}
	default:
		return http.StatusInternalServerError, ErrorInfo{
			Code: "internal", Message: err.Error(),
		}
	}
}

// writeError renders err as the structured JSON error response.
func writeError(w http.ResponseWriter, err error) {
	status, info := MapError(err)
	writeErrorInfo(w, status, info)
}

// writeErrorInfo renders a prebuilt error payload (for server-level
// conditions like not_found that have no engine error behind them).
func writeErrorInfo(w http.ResponseWriter, status int, info ErrorInfo) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: info})
}

func errNotFound(w http.ResponseWriter, what string) {
	writeErrorInfo(w, http.StatusNotFound, ErrorInfo{Code: "not_found", Message: what + " not found"})
}

func errBadRequest(w http.ResponseWriter, msg string) {
	writeErrorInfo(w, http.StatusBadRequest, ErrorInfo{Code: "bad_request", Message: msg})
}

func errAdminDisabled(w http.ResponseWriter) {
	writeErrorInfo(w, http.StatusForbidden, ErrorInfo{Code: "admin_disabled",
		Message: "admin endpoints are disabled; start ldl1d with -admin"})
}
