//! JSON graph descriptors (§III-A7 of the paper).
//!
//! *"A stream processing graph can be created by directly invoking the
//! NEPTUNE API or through a JSON descriptor file."*
//!
//! Operator implementations are code, so a descriptor references them by
//! **factory name** through an [`OperatorRegistry`] the host application
//! populates; the descriptor contributes the topology, parallelism,
//! partitioning, per-link options, and runtime configuration.
//!
//! ```json
//! {
//!   "name": "relay",
//!   "operators": [
//!     {"name": "sender", "kind": "source", "factory": "counting",
//!      "parallelism": 1, "params": {"count": 1000}},
//!     {"name": "relay", "kind": "processor", "factory": "forward",
//!      "parallelism": 2}
//!   ],
//!   "links": [
//!     {"from": "sender", "to": "relay",
//!      "partitioning": {"scheme": "shuffle"},
//!      "buffer_bytes": 16384, "flush_ms": 10,
//!      "compression": {"mode": "threshold", "threshold": 4.0}}
//!   ],
//!   "config": {"buffer_bytes": 1048576, "resources": 2, "transport": "tcp"}
//! }
//! ```

use crate::config::{
    CompressionMode, LinkOptions, PlacementStrategy, RuntimeConfig, TransportMode,
};
use crate::graph::{Factory, Graph, GraphBuilder, GraphError, OperatorSpec};
use crate::json::{parse, JsonValue};
use crate::operator::{StreamProcessor, StreamSource};
use crate::partition::PartitioningScheme;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

type SourceCtor = Arc<dyn Fn(&JsonValue) -> Box<dyn StreamSource> + Send + Sync>;
type ProcessorCtor = Arc<dyn Fn(&JsonValue) -> Box<dyn StreamProcessor> + Send + Sync>;

/// Maps factory names referenced by descriptors to operator constructors.
#[derive(Default, Clone)]
pub struct OperatorRegistry {
    sources: HashMap<String, SourceCtor>,
    processors: HashMap<String, ProcessorCtor>,
}

impl OperatorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source factory. The constructor receives the operator's
    /// `params` object (or `null` when absent) once per instance.
    pub fn register_source<S, F>(&mut self, name: impl Into<String>, ctor: F) -> &mut Self
    where
        S: StreamSource + 'static,
        F: Fn(&JsonValue) -> S + Send + Sync + 'static,
    {
        self.sources.insert(name.into(), Arc::new(move |p| Box::new(ctor(p))));
        self
    }

    /// Register a processor factory.
    pub fn register_processor<P, F>(&mut self, name: impl Into<String>, ctor: F) -> &mut Self
    where
        P: StreamProcessor + 'static,
        F: Fn(&JsonValue) -> P + Send + Sync + 'static,
    {
        self.processors.insert(name.into(), Arc::new(move |p| Box::new(ctor(p))));
        self
    }

    /// Names of registered source factories.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }

    /// Names of registered processor factories.
    pub fn processor_names(&self) -> Vec<&str> {
        self.processors.keys().map(String::as_str).collect()
    }

    /// Build a graph [`Factory`] for a registered source, binding `params`
    /// now — the programmatic equivalent of a descriptor's
    /// `{"kind": "source", "factory": name, "params": …}` entry. `None`
    /// when the name is not registered. `neptune-cluster` uses this to
    /// assemble per-node sub-graphs without round-tripping through JSON
    /// text.
    pub fn source_factory(&self, name: &str, params: &JsonValue) -> Option<Factory> {
        let ctor = self.sources.get(name)?.clone();
        let params = params.clone();
        Some(Factory::Source(Arc::new(move || ctor(&params))))
    }

    /// Processor counterpart of [`source_factory`](Self::source_factory).
    pub fn processor_factory(&self, name: &str, params: &JsonValue) -> Option<Factory> {
        let ctor = self.processors.get(name)?.clone();
        let params = params.clone();
        Some(Factory::Processor(Arc::new(move || ctor(&params))))
    }
}

/// Descriptor processing failures.
#[derive(Debug, Clone, PartialEq)]
pub enum DescriptorError {
    /// The text is not valid JSON.
    Json(String),
    /// A required key is missing or has the wrong type.
    Shape(String),
    /// A factory name is not registered.
    UnknownFactory {
        /// The missing factory.
        factory: String,
        /// The declared kind.
        kind: String,
    },
    /// The assembled graph failed validation.
    Graph(GraphError),
}

impl std::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescriptorError::Json(m) => write!(f, "descriptor json: {m}"),
            DescriptorError::Shape(m) => write!(f, "descriptor shape: {m}"),
            DescriptorError::UnknownFactory { factory, kind } => {
                write!(f, "unknown {kind} factory '{factory}'")
            }
            DescriptorError::Graph(e) => write!(f, "descriptor graph: {e}"),
        }
    }
}

impl std::error::Error for DescriptorError {}

fn shape(msg: impl Into<String>) -> DescriptorError {
    DescriptorError::Shape(msg.into())
}

/// Parse a JSON descriptor into a validated graph plus the runtime
/// configuration (descriptor `config` entries override the defaults).
pub fn parse_descriptor(
    text: &str,
    registry: &OperatorRegistry,
) -> Result<(Graph, RuntimeConfig), DescriptorError> {
    let doc = parse(text).map_err(|e| DescriptorError::Json(e.to_string()))?;
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| shape("top-level 'name' string required"))?;
    let mut builder = GraphBuilder::new(name);

    let operators = doc
        .get("operators")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| shape("top-level 'operators' array required"))?;
    for (i, op) in operators.iter().enumerate() {
        let op_name = op
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| shape(format!("operator {i}: 'name' required")))?;
        let kind = op
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| shape(format!("operator '{op_name}': 'kind' required")))?;
        let factory_name = op
            .get("factory")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| shape(format!("operator '{op_name}': 'factory' required")))?;
        let parallelism = match op.get("parallelism") {
            None => 1,
            Some(v) => v.as_u64().ok_or_else(|| {
                shape(format!("operator '{op_name}': 'parallelism' must be a positive integer"))
            })? as usize,
        };
        let params = op.get("params").cloned().unwrap_or(JsonValue::Null);
        let factory = match kind {
            "source" => registry.source_factory(factory_name, &params).ok_or_else(|| {
                DescriptorError::UnknownFactory {
                    factory: factory_name.into(),
                    kind: "source".into(),
                }
            })?,
            "processor" => registry.processor_factory(factory_name, &params).ok_or_else(|| {
                DescriptorError::UnknownFactory {
                    factory: factory_name.into(),
                    kind: "processor".into(),
                }
            })?,
            other => {
                return Err(shape(format!(
                    "operator '{op_name}': kind must be 'source' or 'processor', got '{other}'"
                )))
            }
        };
        builder =
            builder.operator_spec(OperatorSpec { name: op_name.into(), parallelism, factory });
    }

    if let Some(links) = doc.get("links") {
        let links = links.as_array().ok_or_else(|| shape("'links' must be an array"))?;
        for (i, l) in links.iter().enumerate() {
            let from = l
                .get("from")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| shape(format!("link {i}: 'from' required")))?;
            let to = l
                .get("to")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| shape(format!("link {i}: 'to' required")))?;
            let partitioning = parse_partitioning(l.get("partitioning"))?;
            let options = parse_link_options(l)?;
            builder = builder.link_with(from, to, partitioning, options);
        }
    }

    let config = parse_config(doc.get("config"))?;
    let graph = builder.build().map_err(DescriptorError::Graph)?;
    Ok((graph, config))
}

fn parse_partitioning(v: Option<&JsonValue>) -> Result<PartitioningScheme, DescriptorError> {
    let Some(v) = v else {
        return Ok(PartitioningScheme::Shuffle);
    };
    let scheme = v
        .get("scheme")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| shape("partitioning 'scheme' string required"))?;
    match scheme {
        "shuffle" => Ok(PartitioningScheme::Shuffle),
        "global" => Ok(PartitioningScheme::Global),
        "broadcast" => Ok(PartitioningScheme::Broadcast),
        "fields" => {
            let keys = v
                .get("keys")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| shape("fields partitioning requires 'keys' array"))?;
            let keys: Result<Vec<String>, _> = keys
                .iter()
                .map(|k| {
                    k.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| shape("'keys' entries must be strings"))
                })
                .collect();
            let keys = keys?;
            if keys.is_empty() {
                return Err(shape("fields partitioning requires at least one key"));
            }
            Ok(PartitioningScheme::Fields(keys))
        }
        other => Err(shape(format!(
            "unknown partitioning scheme '{other}' (expected shuffle/global/broadcast/fields)"
        ))),
    }
}

fn parse_compression(v: &JsonValue) -> Result<CompressionMode, DescriptorError> {
    let mode = v
        .get("mode")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| shape("compression 'mode' string required"))?;
    match mode {
        "disabled" => Ok(CompressionMode::Disabled),
        "always" => Ok(CompressionMode::Always),
        "threshold" => {
            let t = v
                .get("threshold")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| shape("threshold compression requires numeric 'threshold'"))?;
            Ok(CompressionMode::Threshold(t))
        }
        other => Err(shape(format!("unknown compression mode '{other}'"))),
    }
}

fn parse_link_options(l: &JsonValue) -> Result<LinkOptions, DescriptorError> {
    let mut options = LinkOptions::default();
    if let Some(b) = l.get("buffer_bytes") {
        options.buffer_bytes =
            Some(b.as_u64().ok_or_else(|| shape("'buffer_bytes' must be a positive integer"))?
                as usize);
    }
    if let Some(ms) = l.get("flush_ms") {
        options.flush_interval = Some(Duration::from_millis(
            ms.as_u64().ok_or_else(|| shape("'flush_ms' must be a positive integer"))?,
        ));
    }
    if let Some(c) = l.get("compression") {
        options.compression = Some(parse_compression(c)?);
    }
    Ok(options)
}

fn parse_config(v: Option<&JsonValue>) -> Result<RuntimeConfig, DescriptorError> {
    let mut config = RuntimeConfig::default();
    let Some(v) = v else { return Ok(config) };
    if let Some(b) = v.get("buffer_bytes") {
        config.buffer_bytes =
            b.as_u64().ok_or_else(|| shape("config 'buffer_bytes' must be an integer"))? as usize;
    }
    if let Some(ms) = v.get("flush_ms") {
        config.flush_interval = Duration::from_millis(
            ms.as_u64().ok_or_else(|| shape("config 'flush_ms' must be an integer"))?,
        );
    }
    if let Some(h) = v.get("watermark_high") {
        config.watermark_high =
            h.as_u64().ok_or_else(|| shape("config 'watermark_high' must be an integer"))? as usize;
    }
    if let Some(l) = v.get("watermark_low") {
        config.watermark_low =
            l.as_u64().ok_or_else(|| shape("config 'watermark_low' must be an integer"))? as usize;
    }
    if let Some(r) = v.get("resources") {
        config.resources =
            r.as_u64().ok_or_else(|| shape("config 'resources' must be an integer"))? as usize;
    }
    if let Some(b) = v.get("batched_scheduling") {
        config.batched_scheduling =
            b.as_bool().ok_or_else(|| shape("config 'batched_scheduling' must be a bool"))?;
    }
    if let Some(c) = v.get("compression") {
        config.compression = parse_compression(c)?;
    }
    if let Some(t) = v.get("transport") {
        config.transport = match t.as_str() {
            Some("in-process") => TransportMode::InProcess,
            Some("tcp") => TransportMode::Tcp,
            _ => return Err(shape("config 'transport' must be 'in-process' or 'tcp'")),
        };
    }
    if let Some(pl) = v.get("placement") {
        let strategy = pl
            .get("strategy")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| shape("placement 'strategy' string required"))?;
        config.placement = match strategy {
            "round-robin" => PlacementStrategy::RoundRobin,
            "capacity-weighted" => {
                let weights = pl
                    .get("weights")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| shape("capacity-weighted placement requires 'weights'"))?;
                let weights: Result<Vec<u32>, _> = weights
                    .iter()
                    .map(|w| {
                        w.as_u64()
                            .map(|x| x as u32)
                            .ok_or_else(|| shape("'weights' entries must be integers"))
                    })
                    .collect();
                PlacementStrategy::CapacityWeighted(weights?)
            }
            other => return Err(shape(format!("unknown placement strategy '{other}'"))),
        };
    }
    if let Some(w) = v.get("worker_threads") {
        config.worker_threads =
            Some(w.as_u64().ok_or_else(|| shape("config 'worker_threads' must be an integer"))?
                as usize);
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OperatorContext, SourceStatus};
    use crate::packet::{FieldValue, StreamPacket};

    struct CountSource {
        left: u64,
    }
    impl StreamSource for CountSource {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            if self.left == 0 {
                return SourceStatus::Exhausted;
            }
            self.left -= 1;
            let mut p = StreamPacket::new();
            p.push_field("n", FieldValue::U64(self.left));
            ctx.emit(&p).unwrap();
            SourceStatus::Emitted(1)
        }
    }
    struct Nop;
    impl StreamProcessor for Nop {
        fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {}
    }

    fn registry() -> OperatorRegistry {
        let mut r = OperatorRegistry::new();
        r.register_source("counting", |params| CountSource {
            left: params.get("count").and_then(JsonValue::as_u64).unwrap_or(10),
        });
        r.register_processor("nop", |_params| Nop);
        r
    }

    const DESCRIPTOR: &str = r#"{
        "name": "relay",
        "operators": [
            {"name": "sender", "kind": "source", "factory": "counting",
             "params": {"count": 500}},
            {"name": "relay", "kind": "processor", "factory": "nop", "parallelism": 2},
            {"name": "sink", "kind": "processor", "factory": "nop"}
        ],
        "links": [
            {"from": "sender", "to": "relay",
             "partitioning": {"scheme": "fields", "keys": ["n"]},
             "buffer_bytes": 4096, "flush_ms": 5,
             "compression": {"mode": "threshold", "threshold": 4.5}},
            {"from": "relay", "to": "sink", "partitioning": {"scheme": "broadcast"}}
        ],
        "config": {"buffer_bytes": 65536, "resources": 2, "transport": "tcp",
                   "batched_scheduling": true, "flush_ms": 20}
    }"#;

    #[test]
    fn full_descriptor_parses() {
        let (graph, config) = parse_descriptor(DESCRIPTOR, &registry()).unwrap();
        assert_eq!(graph.name(), "relay");
        assert_eq!(graph.operators().len(), 3);
        assert_eq!(graph.operator("relay").unwrap().parallelism, 2);
        assert_eq!(graph.links().len(), 2);
        let l0 = &graph.links()[0];
        assert!(
            matches!(&l0.partitioning, PartitioningScheme::Fields(k) if k == &vec!["n".to_string()])
        );
        assert_eq!(l0.options.buffer_bytes, Some(4096));
        assert_eq!(l0.options.flush_interval, Some(Duration::from_millis(5)));
        assert_eq!(l0.options.compression, Some(CompressionMode::Threshold(4.5)));
        assert!(matches!(&graph.links()[1].partitioning, PartitioningScheme::Broadcast));
        assert_eq!(config.buffer_bytes, 65536);
        assert_eq!(config.resources, 2);
        assert_eq!(config.transport, TransportMode::Tcp);
        assert_eq!(config.flush_interval, Duration::from_millis(20));
    }

    #[test]
    fn descriptor_defaults_apply() {
        let doc = r#"{
            "name": "min",
            "operators": [
                {"name": "s", "kind": "source", "factory": "counting"},
                {"name": "p", "kind": "processor", "factory": "nop"}
            ],
            "links": [{"from": "s", "to": "p"}]
        }"#;
        let (graph, config) = parse_descriptor(doc, &registry()).unwrap();
        assert!(matches!(graph.links()[0].partitioning, PartitioningScheme::Shuffle));
        assert_eq!(config.buffer_bytes, RuntimeConfig::default().buffer_bytes);
        assert_eq!(graph.operator("s").unwrap().parallelism, 1);
    }

    #[test]
    fn unknown_factory_rejected() {
        let doc = r#"{
            "name": "g",
            "operators": [{"name": "s", "kind": "source", "factory": "ghost"}]
        }"#;
        let err = parse_descriptor(doc, &registry()).unwrap_err();
        assert!(
            matches!(err, DescriptorError::UnknownFactory { factory, .. } if factory == "ghost")
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let doc = r#"{
            "name": "g",
            "operators": [{"name": "s", "kind": "widget", "factory": "counting"}]
        }"#;
        assert!(matches!(parse_descriptor(doc, &registry()), Err(DescriptorError::Shape(_))));
    }

    #[test]
    fn invalid_json_rejected() {
        assert!(matches!(
            parse_descriptor("{not json", &registry()),
            Err(DescriptorError::Json(_))
        ));
    }

    #[test]
    fn graph_validation_errors_surface() {
        let doc = r#"{
            "name": "g",
            "operators": [
                {"name": "s", "kind": "source", "factory": "counting"},
                {"name": "p", "kind": "processor", "factory": "nop"}
            ],
            "links": [{"from": "s", "to": "missing"}]
        }"#;
        assert!(matches!(
            parse_descriptor(doc, &registry()),
            Err(DescriptorError::Graph(GraphError::UnknownOperator { .. }))
        ));
    }

    #[test]
    fn params_reach_factories() {
        let (graph, _) = parse_descriptor(DESCRIPTOR, &registry()).unwrap();
        // Instantiate the source and drain it: must emit exactly 500.
        let Factory::Source(f) = &graph.operator("sender").unwrap().factory else { panic!("kind") };
        let mut src = f();
        let mut ctx = OperatorContext::collector("sender");
        let mut emitted = 0;
        loop {
            match src.next(&mut ctx) {
                SourceStatus::Emitted(n) => emitted += n,
                SourceStatus::Exhausted => break,
                SourceStatus::Idle | SourceStatus::Pending => {}
            }
        }
        assert_eq!(emitted, 500);
    }

    #[test]
    fn descriptor_job_runs_end_to_end() {
        let (graph, mut config) = parse_descriptor(DESCRIPTOR, &registry()).unwrap();
        // Keep the test in-process and fast.
        config.transport = TransportMode::InProcess;
        config.resources = 1;
        let job = crate::runtime::LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(30)));
        let metrics = job.stop();
        assert_eq!(metrics.operator("sender").packets_out, 500);
        // Broadcast from 2 relay instances to 1 sink: 500 packets arrive.
        assert_eq!(metrics.operator("relay").packets_in, 500);
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    #[test]
    fn placement_parses_from_config() {
        let doc = r#"{
            "name": "placed",
            "operators": [
                {"name": "s", "kind": "source", "factory": "counting"},
                {"name": "p", "kind": "processor", "factory": "nop"}
            ],
            "links": [{"from": "s", "to": "p"}],
            "config": {"resources": 2,
                       "placement": {"strategy": "capacity-weighted", "weights": [8, 4]}}
        }"#;
        let (_, config) = parse_descriptor(doc, &registry()).unwrap();
        assert_eq!(
            config.placement,
            crate::config::PlacementStrategy::CapacityWeighted(vec![8, 4])
        );
        let bad = doc.replace("capacity-weighted", "psychic");
        assert!(matches!(parse_descriptor(&bad, &registry()), Err(DescriptorError::Shape(_))));
    }

    #[test]
    fn fields_partitioning_requires_keys() {
        let doc = r#"{
            "name": "g",
            "operators": [
                {"name": "s", "kind": "source", "factory": "counting"},
                {"name": "p", "kind": "processor", "factory": "nop"}
            ],
            "links": [{"from": "s", "to": "p", "partitioning": {"scheme": "fields"}}]
        }"#;
        assert!(matches!(parse_descriptor(doc, &registry()), Err(DescriptorError::Shape(_))));
    }
}
