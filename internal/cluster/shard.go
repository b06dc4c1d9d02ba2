package cluster

import (
	"net/http"

	"repro/internal/browse"
	"repro/internal/serve"
	"repro/internal/textdb"
)

// Shard is one partition of the corpus served by the existing indexed
// browse engine. The engine is built over the shard's slice only — its
// posting lists, keyword index, date order, and query cache cover just
// the local documents — while global keeps the mapping from local
// document ids back to the corpus-wide ids the coordinator merges on.
type Shard struct {
	name   string
	iface  *browse.Interface
	global []int32 // global[i] = corpus-wide id of local doc i, ascending
}

// BuildShard slices the full interface down to the partition the ring
// assigns to the named shard and builds a fresh browse engine over it.
// The hierarchy is shared globally (every shard serves the same facet
// tree; only the documents differ), and the slice's local ids are the
// ascending renumbering of its global ids, so per-shard document
// answers merge back into global order.
func BuildShard(iface *browse.Interface, ring *Ring, name string) (*Shard, error) {
	idx, err := ring.Index(name)
	if err != nil {
		return nil, err
	}
	part := ring.Partition(iface.Corpus().Len())[idx]
	corpus := textdb.NewCorpus()
	rows := make([][]string, 0, len(part))
	global := make([]int32, 0, len(part))
	allRows := iface.DocTermRows()
	for _, d := range part {
		doc := iface.Corpus().Doc(textdb.DocID(d))
		// Copy the document: Corpus.Add assigns the (local) ID in place,
		// and the full interface's corpus must keep its own ids.
		corpus.Add(&textdb.Document{Title: doc.Title, Source: doc.Source, Date: doc.Date, Text: doc.Text})
		rows = append(rows, allRows[d])
		global = append(global, int32(d))
	}
	sub, err := browse.Build(corpus, iface.Forest(), rows)
	if err != nil {
		return nil, err
	}
	sub.SetEpoch(iface.Epoch())
	return &Shard{name: name, iface: sub, global: global}, nil
}

// Name returns the shard's ring name.
func (sh *Shard) Name() string { return sh.name }

// Interface returns the shard-local browse engine (for tests and for
// serving the shard's own single-node routes).
func (sh *Shard) Interface() *browse.Interface { return sh.iface }

// Len returns the number of documents in the shard's slice.
func (sh *Shard) Len() int { return len(sh.global) }

// Register mounts the shard's scatter endpoints on a serve.Server:
//
//	GET /api/v1/cluster/facets  — children counts over the local slice
//	GET /api/v1/cluster/docs    — matching docs with GLOBAL ids
//
// They accept exactly the public routes' query parameters (the
// coordinator forwards the client's raw query string verbatim) and
// answer in the same JSON envelope, so a shard is operable with curl
// like any other node. Dates and cross-tabulations need neither of the
// two twists these endpoints add, so the coordinator scatters those to
// the shard's public /dates and /cross. Like EnableIngest, Register
// must run before the server starts handling traffic.
func (sh *Shard) Register(srv *serve.Server) {
	srv.HandleQuery("cluster/facets", sh.handleFacets)
	srv.HandleQuery("cluster/docs", sh.handleDocs)
}

// ShardFacets is the GET /api/v1/cluster/facets payload: the shard's
// children counts under the selection, zero counts omitted. No limit is
// applied — truncation is only correct after the coordinator has summed
// counts across shards.
type ShardFacets struct {
	Total  int                 `json:"total"`
	Facets []browse.FacetCount `json:"facets"`
}

func (sh *Shard) handleFacets(w http.ResponseWriter, _ *http.Request, q serve.Query) {
	serve.WriteJSON(w, ShardFacets{
		Total:  sh.iface.MatchCount(q.Sel),
		Facets: sh.iface.Children(q.Parent, q.Sel),
	})
}

// ShardDocs is the GET /api/v1/cluster/docs payload: the shard's first
// `limit` matching documents in ascending GLOBAL id order, plus the
// shard's total match count. Summaries (including snippets) are
// rendered shard-side, where the document text lives; the coordinator
// only merges and truncates.
type ShardDocs struct {
	Total int                `json:"total"`
	Docs  []serve.DocSummary `json:"docs"`
}

func (sh *Shard) handleDocs(w http.ResponseWriter, _ *http.Request, q serve.Query) {
	ids := sh.iface.Docs(q.Sel)
	serve.WriteJSON(w, ShardDocs{
		Total: len(ids),
		Docs:  serve.Summaries(sh.iface, ids, q.Limit, q.Sel.Query, sh.globalID),
	})
}

// globalID maps a shard-local document id to its corpus-wide id.
func (sh *Shard) globalID(d textdb.DocID) int { return int(sh.global[d]) }
