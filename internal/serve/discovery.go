package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
)

// Discovery endpoints: the registries, rendered as JSON, so clients build
// valid RunSpecs and SweepSpecs without hardcoding name lists. Everything
// here derives from the same registries spec.Validate checks against —
// a name listed here is by construction a name the server accepts.

// workloadView is one /v1/workloads row.
type workloadView struct {
	Name  string `json:"name"`
	App   string `json:"app"`
	Input string `json:"input"`
}

// schedulerView is one /v1/schedulers row.
type schedulerView struct {
	Name          string `json:"name"`
	Description   string `json:"description"`
	IdleAware     bool   `json:"idle_aware"`
	Binding       bool   `json:"binding"`
	StrictBinding bool   `json:"strict_binding"`
	ChildFirst    bool   `json:"child_first"`
}

// modelView is one /v1/models row.
type modelView struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// discoveryView wraps each listing with the other spec vocabulary a client
// needs (scales, warp policies, sweepable axis fields), so one round trip
// is enough to construct any spec.
type discoveryView[T any] struct {
	Items      []T      `json:"items"`
	Scales     []string `json:"scales,omitempty"`
	WarpPolicy []string `json:"warp_policies,omitempty"`
	AxisFields []string `json:"axis_fields,omitempty"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := kernels.All()
	items := make([]workloadView, len(all))
	for i, wk := range all {
		items[i] = workloadView{Name: wk.Name, App: wk.App, Input: wk.Input}
	}
	writeJSON(w, http.StatusOK, discoveryView[workloadView]{
		Items:      items,
		Scales:     []string{"tiny", "small", "medium"},
		WarpPolicy: spec.WarpPolicyNames(),
		AxisFields: spec.AxisFields(),
	})
}

func (s *Server) handleSchedulers(w http.ResponseWriter, r *http.Request) {
	all := core.Schedulers()
	items := make([]schedulerView, len(all))
	for i, info := range all {
		items[i] = schedulerView{
			Name: info.Name, Description: info.Description,
			IdleAware: info.IdleAware, Binding: info.Binding,
			StrictBinding: info.StrictBinding, ChildFirst: info.ChildFirst,
		}
	}
	writeJSON(w, http.StatusOK, discoveryView[schedulerView]{Items: items})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	all := gpu.ModelInfos()
	items := make([]modelView, len(all))
	for i, info := range all {
		items[i] = modelView{Name: info.Name, Description: info.Description}
	}
	writeJSON(w, http.StatusOK, discoveryView[modelView]{Items: items})
}

// runsListView is the GET /v1/runs payload: one page of runs in id order,
// plus the cursor for the next page ("" when this is the last).
type runsListView struct {
	Runs       []jobView `json:"runs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// maxRunsPage bounds one listing page.
const maxRunsPage = 500

// handleRunsList serves GET /v1/runs: the live and failed jobs and the
// cache's done runs (earlier processes' too), in id order, filtered by
// ?state= (queued|running|done|failed) and paginated by ?cursor= /
// ?limit=. The cursor, the last id listed, is stable under concurrent
// submissions; a page reads only the cache entries it lists.
func (s *Server) handleRunsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var stateFilter State
	if v := q.Get("state"); v != "" {
		switch State(v) {
		case StateQueued, StateRunning, StateDone, StateFailed:
			stateFilter = State(v)
		default:
			badRequest(w, fmt.Errorf("serve: unknown state filter %q (valid: %s, %s, %s, %s)",
				v, StateQueued, StateRunning, StateDone, StateFailed))
			return
		}
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			badRequest(w, fmt.Errorf("serve: bad limit %q", v))
			return
		}
		limit = min(n, maxRunsPage)
	}
	cursor := q.Get("cursor")
	if cursor != "" && !validID(cursor) {
		badRequest(w, fmt.Errorf("serve: bad cursor %q", cursor))
		return
	}
	// One run past the page tells whether another page follows.
	view := runsListView{Runs: s.listRuns(cursor, stateFilter, limit+1)}
	if len(view.Runs) > limit {
		view.Runs = view.Runs[:limit]
		view.NextCursor = view.Runs[limit-1].ID
	}
	writeJSON(w, http.StatusOK, view)
}

// listRuns returns up to n runs above after in id order, matching filter
// ("" matches all): the job records merged with the cache's done runs
// (cachedRun), read a page at a time. A record shadows its id's entry;
// sweep entries, and ones evicted or discarded meanwhile, are skipped.
func (s *Server) listRuns(after string, filter State, n int) []jobView {
	s.mu.Lock()
	var jobs []*Job
	for id, j := range s.jobs.m {
		if id > after {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int { return strings.Compare(a.ID, b.ID) })

	runs := []jobView{}
	var ids []string
	withCache := filter == "" || filter == StateDone
	for len(runs) < n {
		if len(ids) == 0 && withCache {
			if ids = s.cache.idsAfter(after, n); len(ids) == 0 {
				withCache = false
			} else {
				after = ids[len(ids)-1]
			}
		}
		var v jobView
		switch {
		case len(jobs) > 0 && (len(ids) == 0 || jobs[0].ID <= ids[0]):
			if len(ids) > 0 && ids[0] == jobs[0].ID {
				ids = ids[1:]
			}
			v, jobs = jobs[0].view(), jobs[1:]
		case len(ids) > 0:
			cv, err := s.cachedRun(ids[0])
			ids = ids[1:]
			if err != nil {
				continue
			}
			// Listings carry no results; GET /v1/runs/{id} has them.
			v = cv
			v.Result, v.Artifacts = nil, nil
		default:
			return runs
		}
		if filter == "" || v.State == filter {
			runs = append(runs, v)
		}
	}
	return runs
}
