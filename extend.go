package facet

import (
	"io"

	"repro/internal/core"
	"repro/internal/hierarchy"
)

// This file implements the paper's extension points (Section VII): custom
// term extractors and expansion resources — the "domain-specific
// vocabularies and ontologies (e.g., from the Taxonomy Warehouse)"
// integration — and the hierarchy exports.

// TermExtractor identifies important terms in a document; plug custom
// implementations in through Options.ExtraExtractors.
type TermExtractor interface {
	Name() string
	Extract(text string) []string
}

// ContextResource returns context terms for an important term; plug
// custom implementations in through Options.ExtraResources.
type ContextResource interface {
	Name() string
	Context(term string) []string
}

// NewGlossaryExtractor builds a term extractor from a controlled
// vocabulary: terms appearing in the glossary are marked important
// (longest match first). Use it to run the pipeline over domain text
// (financial filings, medical literature) with a domain glossary.
func NewGlossaryExtractor(name string, vocabulary []string) (TermExtractor, error) {
	return core.NewGlossaryExtractor(name, vocabulary)
}

// NewGlossaryResource builds an expansion resource from a thesaurus map
// (term → related terms), the Section VII "financial ontologies and
// thesauri" scenario.
func NewGlossaryResource(name string, thesaurus map[string][]string) (ContextResource, error) {
	return core.NewGlossaryResource(name, thesaurus)
}

// WriteDOT renders the hierarchy as a Graphviz digraph for visualization.
func (h *Hierarchy) WriteDOT(w io.Writer, name string) error {
	return hierarchy.WriteDOT(w, h.forest, name)
}

// WriteJSON serializes the hierarchy (term, df, children) as JSON.
func (h *Hierarchy) WriteJSON(w io.Writer) error {
	return hierarchy.WriteJSON(w, h.forest)
}

// FormatTree renders the hierarchy as an indented text tree.
func (h *Hierarchy) FormatTree() string {
	return hierarchy.FormatTree(h.forest)
}
