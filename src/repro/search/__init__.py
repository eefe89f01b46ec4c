"""Full-text search engine — the Lucene substrate.

A from-scratch inverted-index engine providing what the paper's system
uses from Apache Lucene: analyzers, multi-field documents with boosts,
TF-IDF (classic) and BM25 scoring, term/phrase/boolean/prefix queries,
a query-string parser and segment-based persistence.
"""

from repro.search.analysis import (Analyzer, KeywordAnalyzer,
                                   PorterStemmer, SimpleAnalyzer,
                                   StandardAnalyzer)
from repro.search.document import Document, Field
from repro.search.index import (IndexWriter, InvertedIndex,
                                PerFieldAnalyzer, load_index, save_index)
from repro.search.query import (BooleanQuery, DisMaxQuery, MatchAllQuery,
                                Occur, PhraseQuery, PrefixQuery, Query,
                                QueryParser, TermQuery)
from repro.search.highlight import Highlighter, collect_terms
from repro.search.query.extras import FuzzyQuery, RangeQuery
from repro.search.spell import SpellChecker, Suggestion
from repro.search.searcher import IndexSearcher, ScoredDoc, TopDocs
from repro.search.similarity import (BM25Similarity, ClassicSimilarity,
                                     Similarity)

__all__ = [
    "Analyzer",
    "StandardAnalyzer",
    "SimpleAnalyzer",
    "KeywordAnalyzer",
    "PorterStemmer",
    "Document",
    "Field",
    "InvertedIndex",
    "IndexWriter",
    "PerFieldAnalyzer",
    "save_index",
    "load_index",
    "Query",
    "TermQuery",
    "PhraseQuery",
    "PrefixQuery",
    "MatchAllQuery",
    "DisMaxQuery",
    "BooleanQuery",
    "Occur",
    "RangeQuery",
    "FuzzyQuery",
    "Highlighter",
    "collect_terms",
    "SpellChecker",
    "Suggestion",
    "QueryParser",
    "IndexSearcher",
    "TopDocs",
    "ScoredDoc",
    "Similarity",
    "ClassicSimilarity",
    "BM25Similarity",
]
