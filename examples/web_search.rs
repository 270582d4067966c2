//! Free-text search over a small "digital library" of real documents.
//!
//! Exercises the full text pipeline of the paper's prototype — tokenizer,
//! 250 stop words, Porter stemmer — then builds the distributed HDK index
//! over the analyzed documents and answers free-text queries, printing the
//! matched documents with snippets. (The paper's engine was built for
//! exactly this setting: federating digital-library collections, ECDL'06.)
//!
//! ```text
//! cargo run --release --example web_search
//! ```

use p2p_hdk::prelude::*;

/// A miniature "web": titled articles, three per topic cluster.
const ARTICLES: &[(&str, &str)] = &[
    ("P2P retrieval", "Peer-to-peer retrieval engines distribute the indexing and querying load over large networks of collaborating peers. Structured overlays maintain a distributed global index."),
    ("Distributed hash tables", "A distributed hash table assigns every key to a responsible peer. Routing in structured peer-to-peer networks reaches the responsible peer in a logarithmic number of hops."),
    ("Indexing with keys", "Highly discriminative keys are terms and term sets appearing in a small number of documents. Indexing with such keys bounds the posting list size and the retrieval traffic."),
    ("BM25 ranking", "The BM25 relevance scheme ranks documents by term frequency saturation and inverse document frequency with document length normalization. BM25 remains a top performing ranking function."),
    ("Inverted indexes", "An inverted index maps every term of the vocabulary to the posting list of documents containing the term. Compression of posting lists uses gap encoding and variable length integers."),
    ("Query processing", "Query processing retrieves the posting lists of the query terms, merges them, and ranks the resulting documents. Multi-term queries benefit from precomputed term set keys."),
    ("Zipf distributions", "Term frequency distributions in large text collections follow the Zipf law. A small number of very frequent terms dominates the text while most terms are rare."),
    ("Bandwidth scalability", "Bandwidth consumption is the major obstacle for peer-to-peer web search. Transmitting long posting lists between peers exceeds the capacity of communication networks."),
    ("Digital libraries", "Digital libraries federate document collections across institutions. A peer-to-peer architecture lets every library contribute storage and indexing capacity."),
    ("Web crawling", "A web crawler downloads documents, extracts links, and feeds the indexer. Crawling politeness limits the request rate per host."),
    ("Stemming algorithms", "The Porter stemmer strips suffixes from English words in five steps. Stemming conflates morphological variants and improves retrieval recall."),
    ("Stop words", "Stop words are extremely common words carrying little retrieval signal. Removing the most common English words shrinks the index considerably."),
];

fn main() {
    // 1. Analyze the documents: tokenize, remove stop words, stem, intern.
    let mut analyzer = Analyzer::new();
    let mut docs = Vec::new();
    for (i, (_, body)) in ARTICLES.iter().enumerate() {
        let analyzed = analyzer.analyze(body);
        docs.push(Document {
            id: DocId(i as u32),
            tokens: analyzed.tokens,
        });
    }
    let vocab = analyzer.vocab().clone();
    let collection = Collection::new(docs, vocab);
    println!(
        "library: {} articles, vocabulary {} stems",
        collection.len(),
        collection.vocab().len()
    );

    // 2. Three library peers share the collection.
    let partitions = partition_documents(collection.len(), 3, 1);
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax: 2, // tiny collection: pairs sharing >2 docs are "common"
            ff: 1_000,
            ..HdkConfig::default()
        },
    );
    let queries = network.query_service();
    let counts = queries.index().index_counts();
    println!("global index: {counts}\n");

    // 3. Free-text queries go through the same analyzer.
    for query_text in [
        "peer-to-peer retrieval",
        "posting list compression",
        "ranking documents with BM25",
        "stemming English words",
        "bandwidth of web search",
    ] {
        let terms = analyzer.analyze_query(query_text);
        let outcome = queries.query(PeerId(0), &terms, 3);
        println!("query: {query_text:?}");
        if outcome.results.is_empty() {
            println!("  (no matches)");
        }
        for r in &outcome.results {
            let (title, body) = ARTICLES[r.doc.index()];
            let snippet: String = body.chars().take(60).collect();
            println!("  {:>5.2}  {title} — {snippet}...", r.score);
        }
        println!(
            "  cost: {} lookups, {} postings fetched\n",
            outcome.lookups, outcome.postings_fetched
        );
    }
}
