//! Streaming ingestion of SBOM documents: the crate's only reader.
//!
//! The serializers in this crate emit our own documents; this module is
//! the opposite direction, for our own documents and those produced by
//! *other* tools alike: CycloneDX 1.4/1.5 JSON, SPDX 2.2/2.3 JSON, SPDX 2.3
//! tag-value. It materializes only the parts the differential engine needs
//! (metadata, components, dependency counts) into the interned
//! [`Component`] model. [`SbomFormat::parse`] and [`SbomFormat::detect`]
//! are thin wrappers over [`ingest_bytes`], so every surface reads a
//! document the same way.
//!
//! Reading is incremental: bytes come from any [`io::Read`] through a
//! fixed-size [`ChunkSource`] window, so a multi-hundred-megabyte document
//! never has to fit in memory. Peak buffering is witnessed by
//! [`IngestStats::peak_buffered`] and asserted by the memory-bound test.
//!
//! Entries materialize through [`RawCdxComponent::into_component`] /
//! [`RawSpdxPackage::into_component`]; for duplicate object keys the first
//! entry wins, a rule `walk_object` owns for every object the reader looks
//! into.
//!
//! Ingestion never panics: every malformed input maps to a classified
//! [`Diagnostic`] (the fatal one in [`IngestOutcome::fatal`]), and the
//! `ingest.doc` fault-injection site lets the chaos soak exercise the
//! degraded path deterministically.
//!
//! [`io::Read`]: std::io::Read

use std::io::Read;

use crate::cyclonedx::{RawCdxComponent, PROPERTIES};
use crate::spdx::{creator_tool, subject_from_doc_name, RawSpdxPackage};
use crate::{tagvalue, SbomFormat};
use sbomdiff_faultline as fault;
use sbomdiff_textformats::stream::{
    ChunkSource, JsonStream, JsonToken, LineReader, StreamError, StreamErrorKind, DEFAULT_CHUNK,
};
use sbomdiff_types::{Component, DiagClass, Diagnostic, Sbom, Severity, Symbol};

/// CycloneDX spec versions the ingester fully models.
const SUPPORTED_CDX: &[&str] = &["1.4", "1.5"];
/// SPDX spec versions the ingester fully models.
const SUPPORTED_SPDX: &[&str] = &["SPDX-2.2", "SPDX-2.3"];

/// Running counters exposed to progress callbacks and returned with the
/// final [`IngestOutcome`].
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Bytes consumed from the reader so far.
    pub bytes_read: u64,
    /// High-water mark of reader-side buffering (chunk window + largest
    /// token), the bounded-memory witness.
    pub peak_buffered: usize,
    /// Components materialized so far.
    pub components: usize,
    /// Dependency edges seen (CycloneDX `dependsOn` entries, SPDX
    /// relationships).
    pub dependency_edges: u64,
    /// The document's self-declared spec version, once seen.
    pub spec_version: Option<String>,
}

/// What ingesting one document produced. Never an `Err`: failures are
/// classified into [`IngestOutcome::fatal`] so callers degrade instead of
/// aborting.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The detected format (`None` when the document was not recognizable).
    pub format: Option<SbomFormat>,
    /// The materialized SBOM (empty on fatal failure); non-fatal findings
    /// are attached as its diagnostics.
    pub sbom: Sbom,
    /// The classified failure that stopped ingestion, if any.
    pub fatal: Option<Diagnostic>,
    /// Reader-side counters.
    pub stats: IngestStats,
}

impl IngestOutcome {
    fn empty() -> Self {
        IngestOutcome {
            format: None,
            sbom: Sbom::default(),
            fatal: None,
            stats: IngestStats::default(),
        }
    }

    /// Whether ingestion failed fatally.
    pub fn is_fatal(&self) -> bool {
        self.fatal.is_some()
    }
}

/// Knobs for [`ingest_reader`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Chunk window size (clamped to `[512, 8 MiB]` by the source).
    pub chunk_size: usize,
    /// Deterministic key for the `ingest.doc` fault site. Callers should
    /// derive it from the document (e.g. its byte length) so chaos soaks
    /// inject identically regardless of worker interleaving.
    pub fault_key: String,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            chunk_size: DEFAULT_CHUNK,
            fault_key: String::new(),
        }
    }
}

/// Ingests a document held in memory (the service path: request bodies are
/// already buffered). The fault key is the byte length, which is identical
/// across workers for the same document.
pub fn ingest_bytes(bytes: &[u8]) -> IngestOutcome {
    let opts = IngestOptions {
        chunk_size: DEFAULT_CHUNK,
        fault_key: bytes.len().to_string(),
    };
    ingest_reader(bytes, opts, &mut |_| {})
}

/// Ingests a document from any reader, invoking `progress` as components
/// materialize (at least once per materialized component; line-oriented
/// formats also report periodically between packages).
pub fn ingest_reader<R: Read>(
    reader: R,
    opts: IngestOptions,
    progress: &mut dyn FnMut(&IngestStats),
) -> IngestOutcome {
    let mut out = IngestOutcome::empty();
    if let Some(surfaced) = fault::point!(fault::sites::INGEST_DOC, &opts.fault_key) {
        out.fatal = Some(Diagnostic::new(
            DiagClass::IoError,
            surfaced.message(fault::sites::INGEST_DOC),
        ));
        return out;
    }
    let mut src = ChunkSource::with_chunk_size(reader, opts.chunk_size);
    // Sniff: first non-whitespace byte decides JSON vs tag-value. Which
    // JSON dialect it is can only be decided once the top-level marker
    // keys (`bomFormat` / `spdxVersion`) have streamed past.
    let first = loop {
        match src.peek() {
            Ok(Some(b)) if (b as char).is_ascii_whitespace() => {
                if let Err(e) = src.next_byte() {
                    out.fatal = Some(classify_fatal(&e));
                    return out;
                }
            }
            Ok(other) => break other,
            Err(e) => {
                out.fatal = Some(classify_fatal(&e));
                return out;
            }
        }
    };
    match first {
        None => {
            out.fatal = Some(Diagnostic::new(DiagClass::TruncatedInput, "empty document"));
            out
        }
        Some(b'{') => ingest_json(JsonStream::from_source(src), out, progress),
        Some(_) => ingest_tag_value(LineReader::from_source(src), out, progress),
    }
}

/// Maps a streaming error to the fatal diagnostic taxonomy.
fn classify_fatal(e: &StreamError) -> Diagnostic {
    let class = match e.kind() {
        StreamErrorKind::Syntax => DiagClass::MalformedFile,
        StreamErrorKind::UnexpectedEof => DiagClass::TruncatedInput,
        StreamErrorKind::Utf8 => DiagClass::EncodingError,
        StreamErrorKind::DepthExceeded | StreamErrorKind::TokenTooLong => {
            DiagClass::UnsupportedSyntax
        }
        StreamErrorKind::Io => DiagClass::IoError,
    };
    // A fatal stop is an error even for classes whose default severity is
    // softer (resource-cap violations).
    let mut d = Diagnostic::new(class, e.message().to_string())
        .with_severity(Severity::Error)
        .with_byte_offset(e.byte_offset());
    if e.line() > 0 {
        d = d.with_line(e.line() as u32);
    }
    d
}

/// Everything the JSON materializer extracts from a top-level document.
#[derive(Debug, Default)]
struct DocFields {
    bom_format: Option<String>,
    spec_version: Option<String>,
    spdx_version: Option<String>,
    doc_name: Option<String>,
    creator: Option<String>,
    tool_name: Option<String>,
    tool_version: Option<String>,
    subject: Option<String>,
    /// CycloneDX `metadata.timestamp` or SPDX `creationInfo.created`.
    timestamp: Option<String>,
    /// CycloneDX `components` and `dependsOn` entries.
    cdx: Entries,
    /// SPDX `packages` and `relationships` entries.
    spdx: Entries,
}

/// One dialect's materialized components and dependency-edge count. A
/// document may carry both dialects' keys; only the detected dialect's
/// entries are kept.
#[derive(Debug, Default)]
struct Entries {
    components: Vec<Component>,
    dependency_edges: u64,
}

fn ingest_json<R: Read>(
    mut js: JsonStream<R>,
    mut out: IngestOutcome,
    progress: &mut dyn FnMut(&IngestStats),
) -> IngestOutcome {
    let mut fields = DocFields::default();
    let result = parse_top(&mut js, &mut fields, &mut out.stats, progress);
    out.stats.bytes_read = js.bytes_read();
    out.stats.peak_buffered = js.peak_buffered();
    // Until a dialect is kept, the counts cover both dialects' entries.
    out.stats.dependency_edges = fields.cdx.dependency_edges + fields.spdx.dependency_edges;
    if let Err(e) = result {
        out.fatal = Some(classify_fatal(&e));
        return out;
    }
    let (format, mut sbom, version, kept) = if fields.bom_format.as_deref() == Some("CycloneDX") {
        let sbom = Sbom::new(
            fields.tool_name.unwrap_or_else(|| "unknown".to_string()),
            fields.tool_version.unwrap_or_default(),
        )
        .with_subject(fields.subject.unwrap_or_default());
        (SbomFormat::CycloneDx, sbom, fields.spec_version, fields.cdx)
    } else if fields
        .spdx_version
        .as_deref()
        .is_some_and(|v| v.starts_with("SPDX-"))
    {
        let (tool_name, tool_version) = creator_tool(fields.creator.as_deref().unwrap_or(""));
        let subject = subject_from_doc_name(fields.doc_name.as_deref().unwrap_or(""), &tool_name);
        let sbom = Sbom::new(tool_name, tool_version).with_subject(subject);
        (SbomFormat::Spdx, sbom, fields.spdx_version, fields.spdx)
    } else {
        out.fatal = Some(Diagnostic::new(
            DiagClass::MalformedFile,
            "not a recognizable CycloneDX or SPDX document",
        ));
        return out;
    };
    sbom.meta.timestamp = fields.timestamp;
    if let Some(warning) = spec_warning(format, version.as_deref()) {
        sbom.push_diagnostic(warning);
    }
    out.stats.components = kept.components.len();
    out.stats.dependency_edges = kept.dependency_edges;
    for c in kept.components {
        sbom.push(c);
    }
    out.format = Some(format);
    out.stats.spec_version = version;
    out.sbom = sbom;
    out
}

/// The warning for a declared spec version the ingester does not fully
/// model.
fn spec_warning(format: SbomFormat, version: Option<&str>) -> Option<Diagnostic> {
    let (field, supported) = match format {
        SbomFormat::CycloneDx => ("CycloneDX specVersion", SUPPORTED_CDX),
        SbomFormat::Spdx => ("spdxVersion", SUPPORTED_SPDX),
        SbomFormat::SpdxTagValue => ("SPDXVersion", SUPPORTED_SPDX),
    };
    let value = version.filter(|v| !supported.contains(v))?;
    Some(
        Diagnostic::new(
            DiagClass::UnsupportedSyntax,
            format!(
                "unsupported {field} {:?}; fields beyond the supported versions are ignored",
                sbomdiff_types::diagnostic::excerpt(value)
            ),
        )
        .with_severity(Severity::Warning),
    )
}

/// The next token, turning a clean end-of-document into a truncation error
/// (callers here are always inside a structure they expect to finish).
fn must_token<R: Read>(js: &mut JsonStream<R>) -> Result<JsonToken, StreamError> {
    match js.next_token()? {
        Some(token) => Ok(token),
        None => Err(StreamError::new(
            StreamErrorKind::UnexpectedEof,
            js.line(),
            js.bytes_read(),
            "unexpected end of document",
        )),
    }
}

/// Skips the remainder of a value whose first token was `token`.
fn skip_rest_of<R: Read>(js: &mut JsonStream<R>, token: JsonToken) -> Result<(), StreamError> {
    if !matches!(token, JsonToken::ObjectStart | JsonToken::ArrayStart) {
        return Ok(());
    }
    let mut depth = 1usize;
    while depth > 0 {
        match must_token(js)? {
            JsonToken::ObjectStart | JsonToken::ArrayStart => depth += 1,
            JsonToken::ObjectEnd | JsonToken::ArrayEnd => depth -= 1,
            _ => {}
        }
    }
    Ok(())
}

/// Skips one whole value.
fn skip_value<R: Read>(js: &mut JsonStream<R>) -> Result<(), StreamError> {
    let token = must_token(js)?;
    skip_rest_of(js, token)
}

/// Reads one value: `read` gets its text when it is a string, and anything
/// else is skipped. Only what `read` keeps of the text is copied.
fn text_value<R: Read, T>(
    js: &mut JsonStream<R>,
    read: impl FnOnce(&str) -> T,
) -> Result<Option<T>, StreamError> {
    match must_token(js)? {
        JsonToken::Str => Ok(Some(read(js.text()))),
        token => {
            skip_rest_of(js, token)?;
            Ok(None)
        }
    }
}

fn unexpected<R: Read>(js: &JsonStream<R>) -> StreamError {
    StreamError::new(
        StreamErrorKind::Syntax,
        js.line(),
        js.bytes_read(),
        "unexpected event inside object",
    )
}

/// Walks the members of an object whose `ObjectStart` was just consumed,
/// through its `ObjectEnd`. `visit` must consume the value of the first
/// entry of each key in `keys`. Later entries of the same key are skipped,
/// so the first entry wins, and so are keys outside `keys`. A bitmask over
/// `keys` records what was seen; walking allocates nothing.
fn walk_object<'k, R: Read>(
    js: &mut JsonStream<R>,
    keys: &[&'k str],
    mut visit: impl FnMut(&mut JsonStream<R>, &'k str) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    debug_assert!(keys.len() <= 32);
    let mut seen = 0u32;
    loop {
        match must_token(js)? {
            JsonToken::Key => match keys.iter().position(|&want| want == js.text()) {
                Some(i) if seen & (1 << i) == 0 => {
                    seen |= 1 << i;
                    visit(js, keys[i])?;
                }
                _ => skip_value(js)?,
            },
            JsonToken::ObjectEnd => return Ok(()),
            _ => return Err(unexpected(js)),
        }
    }
}

/// Reads one value: an object is walked with [`walk_object`], anything
/// else is skipped.
fn object_value<'k, R: Read>(
    js: &mut JsonStream<R>,
    keys: &[&'k str],
    visit: impl FnMut(&mut JsonStream<R>, &'k str) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    match must_token(js)? {
        JsonToken::ObjectStart => walk_object(js, keys, visit),
        token => skip_rest_of(js, token),
    }
}

/// Consumes a value whose first token was `first`. For an array, `element`
/// gets each element's index and first token and must consume the rest of
/// the element; any other value is skipped.
fn array_items<R: Read>(
    js: &mut JsonStream<R>,
    first: JsonToken,
    mut element: impl FnMut(&mut JsonStream<R>, usize, JsonToken) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    if first != JsonToken::ArrayStart {
        return skip_rest_of(js, first);
    }
    let mut idx = 0;
    loop {
        match must_token(js)? {
            JsonToken::ArrayEnd => return Ok(()),
            token => element(js, idx, token)?,
        }
        idx += 1;
    }
}

/// Reads one value: `object` gets each object element of an array right
/// after its `ObjectStart` and must consume it. Other elements, and a
/// value that is not an array, are skipped.
fn each_object<R: Read>(
    js: &mut JsonStream<R>,
    mut object: impl FnMut(&mut JsonStream<R>) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    let first = must_token(js)?;
    array_items(js, first, |js, _, token| match token {
        JsonToken::ObjectStart => object(js),
        token => skip_rest_of(js, token),
    })
}

fn parse_top<R: Read>(
    js: &mut JsonStream<R>,
    fields: &mut DocFields,
    stats: &mut IngestStats,
    progress: &mut dyn FnMut(&IngestStats),
) -> Result<(), StreamError> {
    if js.next_token()? != Some(JsonToken::ObjectStart) {
        // The sniffer saw `{`, so anything else is tokenizer-level.
        return Err(unexpected(js));
    }
    const KEYS: &[&str] = &[
        "bomFormat",
        "specVersion",
        "spdxVersion",
        "name",
        "metadata",
        "creationInfo",
        "components",
        "packages",
        "dependencies",
        "relationships",
    ];
    walk_object(js, KEYS, |js, key| {
        match key {
            "bomFormat" => fields.bom_format = text_value(js, str::to_owned)?,
            "specVersion" => fields.spec_version = text_value(js, str::to_owned)?,
            "spdxVersion" => fields.spdx_version = text_value(js, str::to_owned)?,
            "name" => fields.doc_name = text_value(js, str::to_owned)?,
            "metadata" => parse_metadata(js, fields)?,
            "creationInfo" => parse_creation_info(js, fields)?,
            "components" => parse_cdx_components(js, &mut fields.cdx, stats, progress)?,
            "packages" => parse_spdx_packages(js, &mut fields.spdx, stats, progress)?,
            "dependencies" => parse_cdx_dependencies(js, &mut fields.cdx)?,
            "relationships" => {
                let first = must_token(js)?;
                array_items(js, first, |js, _, token| {
                    fields.spdx.dependency_edges += 1;
                    skip_rest_of(js, token)
                })?
            }
            _ => skip_value(js)?,
        }
        Ok(())
    })?;
    // Drain: a clean document yields `None`; trailing bytes are a syntax
    // error the tokenizer raises itself.
    js.next_token()?;
    Ok(())
}

/// CycloneDX `metadata`: the tool identity, the analyzed subject's `name`
/// and the timestamp.
fn parse_metadata<R: Read>(
    js: &mut JsonStream<R>,
    fields: &mut DocFields,
) -> Result<(), StreamError> {
    object_value(js, &["tools", "component", "timestamp"], |js, key| {
        match key {
            "tools" => parse_tools(js, fields)?,
            "component" => object_value(js, &["name"], |js, _| {
                fields.subject = text_value(js, str::to_owned)?;
                Ok(())
            })?,
            "timestamp" => fields.timestamp = text_value(js, str::to_owned)?,
            _ => skip_value(js)?,
        }
        Ok(())
    })
}

/// CycloneDX `metadata.tools`: an array of tool objects (1.4) or an object
/// holding a `components` array (1.5). Only the first entry's name/version
/// are used.
fn parse_tools<R: Read>(js: &mut JsonStream<R>, fields: &mut DocFields) -> Result<(), StreamError> {
    match must_token(js)? {
        JsonToken::ObjectStart => walk_object(js, &["components"], |js, _| {
            let first = must_token(js)?;
            parse_tool_entries(js, first, fields)
        }),
        first => parse_tool_entries(js, first, fields),
    }
}

/// A tools array: entry 0's `name`/`version` strings, everything else
/// skipped.
fn parse_tool_entries<R: Read>(
    js: &mut JsonStream<R>,
    first: JsonToken,
    fields: &mut DocFields,
) -> Result<(), StreamError> {
    array_items(js, first, |js, idx, token| match token {
        JsonToken::ObjectStart if idx == 0 => walk_object(js, &["name", "version"], |js, key| {
            match key {
                "name" => fields.tool_name = text_value(js, str::to_owned)?,
                "version" => fields.tool_version = text_value(js, str::to_owned)?,
                _ => skip_value(js)?,
            }
            Ok(())
        }),
        token => skip_rest_of(js, token),
    })
}

/// SPDX `creationInfo`: `created`, and `creators[0]` when it is a string.
fn parse_creation_info<R: Read>(
    js: &mut JsonStream<R>,
    fields: &mut DocFields,
) -> Result<(), StreamError> {
    object_value(js, &["created", "creators"], |js, key| {
        match key {
            "created" => fields.timestamp = text_value(js, str::to_owned)?,
            "creators" => {
                let first = must_token(js)?;
                array_items(js, first, |js, idx, token| match token {
                    JsonToken::Str if idx == 0 => {
                        fields.creator = Some(js.text().to_owned());
                        Ok(())
                    }
                    token => skip_rest_of(js, token),
                })?
            }
            _ => skip_value(js)?,
        }
        Ok(())
    })
}

/// Adds a materialized component to `entries` and reports progress
/// (`stats.components` counts both dialects' entries until the end).
fn record_component<R: Read>(
    js: &JsonStream<R>,
    component: Option<Component>,
    entries: &mut Entries,
    stats: &mut IngestStats,
    progress: &mut dyn FnMut(&IngestStats),
) {
    if let Some(c) = component {
        entries.components.push(c);
        stats.components += 1;
        stats.bytes_read = js.bytes_read();
        stats.peak_buffered = js.peak_buffered();
        progress(stats);
    }
}

/// CycloneDX `components`: materialize each entry through
/// [`RawCdxComponent`] as it completes.
fn parse_cdx_components<R: Read>(
    js: &mut JsonStream<R>,
    cdx: &mut Entries,
    stats: &mut IngestStats,
    progress: &mut dyn FnMut(&IngestStats),
) -> Result<(), StreamError> {
    const KEYS: &[&str] = &["name", "version", "purl", "cpe", "publisher", "properties"];
    // One buffer for every property value (see `parse_cdx_properties`).
    let mut value = String::new();
    each_object(js, |js| {
        let mut raw = RawCdxComponent::default();
        walk_object(js, KEYS, |js, key| {
            match key {
                "name" => raw.name = text_value(js, |t| Symbol::from(t))?,
                "version" => raw.version = text_value(js, |t| Symbol::from(t))?,
                "purl" => raw.purl = text_value(js, |t| t.parse().ok())?.flatten(),
                "cpe" => raw.cpe = text_value(js, |t| t.parse().ok())?.flatten(),
                "publisher" => {
                    let supplier = |t: &str| (!t.is_empty()).then(|| Symbol::from(t));
                    raw.supplier = text_value(js, supplier)?.flatten();
                }
                "properties" => parse_cdx_properties(js, &mut raw, &mut value)?,
                _ => skip_value(js)?,
            }
            Ok(())
        })?;
        record_component(js, raw.into_component(), cdx, stats, progress);
        Ok(())
    })
}

/// A CycloneDX component's `properties` array: each entry whose `name` and
/// `value` are strings goes to [`RawCdxComponent::property`], in document
/// order. Only names it reads are kept, and values pass through `value`,
/// one buffer reused for every entry.
fn parse_cdx_properties<R: Read>(
    js: &mut JsonStream<R>,
    raw: &mut RawCdxComponent,
    value: &mut String,
) -> Result<(), StreamError> {
    each_object(js, |js| {
        let (mut name, mut has_value) = (None, false);
        walk_object(js, &["name", "value"], |js, key| {
            if key == "name" {
                let known = |t: &str| PROPERTIES.iter().find(|&&p| p == t).copied();
                name = text_value(js, known)?.flatten();
            } else {
                value.clear();
                has_value = text_value(js, |t| value.push_str(t))?.is_some();
            }
            Ok(())
        })?;
        if let (Some(name), true) = (name, has_value) {
            raw.property(name, value);
        }
        Ok(())
    })
}

/// SPDX `packages`: materialize each entry through [`RawSpdxPackage`].
fn parse_spdx_packages<R: Read>(
    js: &mut JsonStream<R>,
    spdx: &mut Entries,
    stats: &mut IngestStats,
    progress: &mut dyn FnMut(&IngestStats),
) -> Result<(), StreamError> {
    const KEYS: &[&str] = &[
        "name",
        "versionInfo",
        "sourceInfo",
        "supplier",
        "externalRefs",
    ];
    // One buffer for every reference locator (see `parse_spdx_refs`).
    let mut locator = String::new();
    each_object(js, |js| {
        let mut raw = RawSpdxPackage::default();
        walk_object(js, KEYS, |js, key| {
            match key {
                "name" => raw.name = text_value(js, |t| Symbol::from(t))?,
                "versionInfo" => raw.version = text_value(js, |t| Symbol::from(t))?,
                "sourceInfo" => {
                    text_value(js, |t| raw.source_info(t))?;
                }
                "supplier" => {
                    text_value(js, |t| raw.supplier(t))?;
                }
                "externalRefs" => parse_spdx_refs(js, &mut raw, &mut locator)?,
                _ => skip_value(js)?,
            }
            Ok(())
        })?;
        record_component(js, raw.into_component(), spdx, stats, progress);
        Ok(())
    })
}

/// An SPDX package's `externalRefs` array: each entry whose
/// `referenceType` is a type the package reads goes to
/// [`RawSpdxPackage::external_ref`] with its `referenceLocator`, in
/// document order. Locators pass through `locator`, one buffer reused for
/// every entry.
fn parse_spdx_refs<R: Read>(
    js: &mut JsonStream<R>,
    raw: &mut RawSpdxPackage,
    locator: &mut String,
) -> Result<(), StreamError> {
    each_object(js, |js| {
        let (mut rtype, mut has_locator) = (None, false);
        walk_object(js, &["referenceType", "referenceLocator"], |js, key| {
            if key == "referenceType" {
                // Other types leave the package as it is.
                let known = |t: &str| ["purl", "cpe23Type"].into_iter().find(|&k| k == t);
                rtype = text_value(js, known)?.flatten();
            } else {
                locator.clear();
                has_locator = text_value(js, |t| locator.push_str(t))?.is_some();
            }
            Ok(())
        })?;
        if let Some(rtype) = rtype {
            raw.external_ref(rtype, has_locator.then_some(locator.as_str()));
        }
        Ok(())
    })
}

/// CycloneDX `dependencies`: counts `dependsOn` string entries across the
/// graph (an ingest statistic; the flat component model carries no edges).
fn parse_cdx_dependencies<R: Read>(
    js: &mut JsonStream<R>,
    cdx: &mut Entries,
) -> Result<(), StreamError> {
    each_object(js, |js| {
        walk_object(js, &["dependsOn"], |js, _| {
            let first = must_token(js)?;
            array_items(js, first, |js, _, token| match token {
                JsonToken::Str => {
                    cdx.dependency_edges += 1;
                    Ok(())
                }
                token => skip_rest_of(js, token),
            })
        })
    })
}

/// How many tag-value lines between periodic progress reports.
const TAG_VALUE_PROGRESS_EVERY: usize = 1024;

fn ingest_tag_value<R: Read>(
    mut lr: LineReader<R>,
    mut out: IngestOutcome,
    progress: &mut dyn FnMut(&IngestStats),
) -> IngestOutcome {
    let mut builder = tagvalue::Builder::new();
    let mut lines = 0usize;
    loop {
        match lr.next_line() {
            Ok(Some(line)) => {
                lines += 1;
                let starts_package = line.trim_start().starts_with("PackageName:");
                if let Err(e) = builder.line(line) {
                    out.stats.bytes_read = lr.bytes_read();
                    out.stats.peak_buffered = lr.peak_buffered();
                    out.fatal = Some(
                        Diagnostic::new(DiagClass::MalformedFile, e.message().to_string())
                            .with_line(e.line() as u32),
                    );
                    return out;
                }
                if starts_package || lines.is_multiple_of(TAG_VALUE_PROGRESS_EVERY) {
                    out.stats.bytes_read = lr.bytes_read();
                    out.stats.peak_buffered = lr.peak_buffered();
                    if starts_package {
                        out.stats.components += 1;
                    }
                    progress(&out.stats);
                }
            }
            Ok(None) => break,
            Err(e) => {
                out.stats.bytes_read = lr.bytes_read();
                out.stats.peak_buffered = lr.peak_buffered();
                out.fatal = Some(classify_fatal(&e));
                return out;
            }
        }
    }
    out.stats.bytes_read = lr.bytes_read();
    out.stats.peak_buffered = lr.peak_buffered();
    out.stats.spec_version = builder.spdx_version().map(str::to_string);
    out.stats.dependency_edges = builder.relationships();
    match builder.finish() {
        Ok(mut sbom) => {
            out.format = Some(SbomFormat::SpdxTagValue);
            out.stats.components = sbom.len();
            let version = out.stats.spec_version.as_deref();
            if let Some(warning) = spec_warning(SbomFormat::SpdxTagValue, version) {
                sbom.push_diagnostic(warning);
            }
            out.sbom = sbom;
            out
        }
        Err(e) => {
            // `finish` fails on an unterminated `<text>` span (truncation)
            // or a document that never declared an SPDX version.
            let class = if e.message().contains("unterminated") {
                DiagClass::TruncatedInput
            } else {
                DiagClass::MalformedFile
            };
            let mut d = Diagnostic::new(class, e.message().to_string());
            if e.line() > 0 {
                d = d.with_line(e.line() as u32);
            }
            out.fatal = Some(d);
            out.stats.components = 0;
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_faultline::{FaultAction, FaultPlan, FaultRule};
    use sbomdiff_types::{Cpe, DepScope, Ecosystem, Purl};

    fn sample(tool: &str) -> Sbom {
        let mut sbom = Sbom::new(tool, "9.9.1")
            .with_subject("demo-repo")
            .with_timestamp("2024-06-24T00:00:00Z");
        sbom.push(
            Component::new(Ecosystem::Python, "requests", Some("2.31.0".into()))
                .with_found_in("requirements.txt")
                .with_scope(DepScope::Runtime)
                .with_purl(Purl::for_package(
                    Ecosystem::Python,
                    "requests",
                    Some("2.31.0"),
                ))
                .with_cpe(Cpe::for_package(Ecosystem::Python, "requests", "2.31.0"))
                .with_supplier("pypi:requests"),
        );
        sbom.push(Component::new(Ecosystem::Go, "github.com/a/b", None));
        sbom
    }

    #[test]
    fn round_trips_every_emitted_format() {
        let s = sample("syft");
        for format in SbomFormat::ALL {
            let text = format.serialize(&s);
            let out = ingest_bytes(text.as_bytes());
            assert!(out.fatal.is_none(), "{format:?}: {:?}", out.fatal);
            assert_eq!(out.format, Some(format));
            assert_eq!(out.sbom.components(), s.components(), "{format:?}");
            assert_eq!(out.sbom.meta.tool_name, "syft");
            assert_eq!(out.sbom.meta.tool_version, "9.9.1");
            assert_eq!(out.sbom.meta.subject, "demo-repo");
            assert_eq!(
                out.sbom.meta.timestamp.as_deref(),
                Some("2024-06-24T00:00:00Z"),
                "{format:?}"
            );
            assert_eq!(out.stats.components, 2);
            assert_eq!(out.stats.bytes_read, text.len() as u64);
        }
    }

    #[test]
    fn streaming_matches_in_memory_parse() {
        // Every chunk size reads back exactly the SBOM that was emitted.
        let s = sample("trivy");
        for format in SbomFormat::ALL {
            let text = format.serialize(&s);
            for chunk in [512, 4096, DEFAULT_CHUNK] {
                let opts = IngestOptions {
                    chunk_size: chunk,
                    fault_key: String::new(),
                };
                let out = ingest_reader(text.as_bytes(), opts, &mut |_| {});
                assert!(out.fatal.is_none());
                assert_eq!(out.sbom.components(), s.components(), "{format:?} {chunk}");
                assert_eq!(out.sbom.meta.tool_name, "trivy");
                assert_eq!(out.sbom.meta.tool_version, "9.9.1");
                assert_eq!(out.sbom.meta.subject, "demo-repo");
                assert_eq!(out.sbom.meta.timestamp, s.meta.timestamp);
            }
        }
    }

    #[test]
    fn duplicate_keys_are_first_entry_wins_like_value_get() {
        let text = r#"{
            "bomFormat": "CycloneDX",
            "bomFormat": "SPDX",
            "specVersion": "1.5",
            "metadata": {
                "tools": [{"name": "syft", "name": "grype", "version": "1"}],
                "tools": [{"name": "shadowed"}],
                "timestamp": "t1",
                "timestamp": "t2"
            },
            "components": [
                {"name": "first", "name": "second", "version": "1",
                 "properties": [{"name": "sbomdiff:found_in", "name": "x",
                                 "value": "a.txt", "value": "b.txt"}]},
                {"name": "v", "version": 7, "version": "2"},
                {"name": 1, "name": "nameless"}
            ],
            "components": [{"name": "shadowed"}]
        }"#;
        let out = ingest_bytes(text.as_bytes());
        assert!(out.fatal.is_none(), "{:?}", out.fatal);
        assert_eq!(out.format, Some(SbomFormat::CycloneDx));
        assert_eq!(out.sbom.meta.tool_name, "syft");
        assert_eq!(out.sbom.meta.timestamp.as_deref(), Some("t1"));
        let names: Vec<&str> = out
            .sbom
            .components()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["first", "v"]);
        let first = &out.sbom.components()[0];
        assert_eq!(first.version.as_deref(), Some("1"));
        assert_eq!(first.found_in, "a.txt");
        // A non-string first entry still shadows a later string one.
        assert_eq!(out.sbom.components()[1].version, None);

        let spdx = r#"{
            "spdxVersion": "SPDX-2.3",
            "creationInfo": {"creators": ["Tool: a-1"], "creators": ["Tool: b-2"]},
            "packages": [{"name": "p", "externalRefs": [
                {"referenceType": "purl", "referenceType": "cpe23Type",
                 "referenceLocator": "pkg:npm/p@1", "referenceLocator": "pkg:npm/q@2"}]}]
        }"#;
        let out = ingest_bytes(spdx.as_bytes());
        assert!(out.fatal.is_none(), "{:?}", out.fatal);
        assert_eq!(out.sbom.meta.tool_name, "a");
        let purl = out.sbom.components()[0]
            .purl
            .as_ref()
            .map(ToString::to_string);
        assert_eq!(purl.as_deref(), Some("pkg:npm/p@1"));
    }

    #[test]
    fn cdx_14_tools_array_and_15_tools_object_shapes() {
        let v14 = r#"{"bomFormat": "CycloneDX", "specVersion": "1.4",
            "metadata": {"tools": [{"name": "syft", "version": "0.84"}]},
            "components": []}"#;
        let v15 = r#"{"bomFormat": "CycloneDX", "specVersion": "1.5",
            "metadata": {"tools": {"components": [{"name": "syft", "version": "0.84"}]}},
            "components": []}"#;
        for text in [v14, v15] {
            let out = ingest_bytes(text.as_bytes());
            assert!(out.fatal.is_none(), "{text}: {:?}", out.fatal);
            assert_eq!(out.sbom.meta.tool_name, "syft");
            assert_eq!(out.sbom.meta.tool_version, "0.84");
            assert!(out.sbom.diagnostics().is_empty());
        }
    }

    #[test]
    fn unsupported_spec_versions_warn_but_parse() {
        let cdx = r#"{"bomFormat": "CycloneDX", "specVersion": "1.0",
            "components": [{"name": "a"}]}"#;
        let out = ingest_bytes(cdx.as_bytes());
        assert!(out.fatal.is_none());
        assert_eq!(out.sbom.len(), 1);
        assert_eq!(out.stats.spec_version.as_deref(), Some("1.0"));
        assert_eq!(
            out.sbom.diagnostics()[0].class,
            DiagClass::UnsupportedSyntax
        );
        let tv = "SPDXVersion: SPDX-1.2\nPackageName: a\n";
        let out = ingest_bytes(tv.as_bytes());
        assert!(out.fatal.is_none());
        assert_eq!(out.sbom.len(), 1);
        assert_eq!(
            out.sbom.diagnostics()[0].class,
            DiagClass::UnsupportedSyntax
        );
    }

    #[test]
    fn fatal_classes_for_malformed_inputs() {
        for (bytes, class) in [
            (&b""[..], DiagClass::TruncatedInput),
            (&b"   \n "[..], DiagClass::TruncatedInput),
            (
                &b"{\"bomFormat\": \"CycloneDX\""[..],
                DiagClass::TruncatedInput,
            ),
            (&b"{\"a\": }"[..], DiagClass::MalformedFile),
            (&b"{} trailing"[..], DiagClass::MalformedFile),
            (&b"{\"a\": 1}"[..], DiagClass::MalformedFile),
            (&b"{\"a\": \"\xff\xfe\"}"[..], DiagClass::EncodingError),
            (
                &b"SPDXVersion: SPDX-2.3\n\xff\xfe\n"[..],
                DiagClass::EncodingError,
            ),
            (&b"no colon line"[..], DiagClass::MalformedFile),
            (
                &b"SPDXVersion: SPDX-2.3\nPackageSourceInfo: <text>open\n"[..],
                DiagClass::TruncatedInput,
            ),
        ] {
            let out = ingest_bytes(bytes);
            let fatal = out.fatal.unwrap_or_else(|| {
                panic!("expected fatal for {:?}", String::from_utf8_lossy(bytes))
            });
            assert_eq!(fatal.class, class, "{:?}", String::from_utf8_lossy(bytes));
            assert_eq!(fatal.severity, Severity::Error);
            assert_eq!(out.sbom.len(), 0);
        }
    }

    #[test]
    fn progress_reports_components_and_bytes() {
        let s = sample("syft");
        let text = SbomFormat::CycloneDx.serialize(&s);
        let mut calls = Vec::new();
        let out = ingest_reader(text.as_bytes(), IngestOptions::default(), &mut |st| {
            calls.push((st.components, st.bytes_read))
        });
        assert!(out.fatal.is_none());
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].0, 1);
        assert_eq!(calls[1].0, 2);
        assert!(calls[0].1 <= calls[1].1);
    }

    #[test]
    fn dependency_edges_are_counted() {
        let s = sample("syft");
        let cdx = SbomFormat::CycloneDx.serialize(&s);
        let out = ingest_bytes(cdx.as_bytes());
        assert_eq!(out.stats.dependency_edges, 2);
        let spdx = SbomFormat::Spdx.serialize(&s);
        let out = ingest_bytes(spdx.as_bytes());
        assert_eq!(out.stats.dependency_edges, 2);
        let tv = SbomFormat::SpdxTagValue.serialize(&s);
        let out = ingest_bytes(tv.as_bytes());
        assert_eq!(out.stats.dependency_edges, 2);
    }

    #[test]
    fn mixed_dialect_documents_keep_only_the_detected_entries() {
        let names = |out: &IngestOutcome| -> Vec<String> {
            let comps = out.sbom.components().iter();
            comps.map(|c| c.name.to_string()).collect()
        };
        let cases = [
            (
                r#"{"bomFormat":"CycloneDX","specVersion":"1.5","components":[{"name":"a"}],"packages":[{"name":"stray"}]}"#,
                SbomFormat::CycloneDx,
                "a",
                0,
            ),
            // The marker may come after both lists.
            (
                r#"{"packages":[{"name":"stray"}],"components":[{"name":"a"}],
                    "relationships":[1,2,3],"dependencies":[{"ref":"a","dependsOn":["b"]}],
                    "bomFormat":"CycloneDX"}"#,
                SbomFormat::CycloneDx,
                "a",
                1,
            ),
            (
                r#"{"spdxVersion":"SPDX-2.3","components":[{"name":"stray"}],"packages":[{"name":"p"}],
                    "dependencies":[{"ref":"p","dependsOn":["x","y"]}],"relationships":[{}]}"#,
                SbomFormat::Spdx,
                "p",
                1,
            ),
        ];
        for (text, format, kept, edges) in cases {
            let mut seen = 0;
            let out = ingest_reader(text.as_bytes(), IngestOptions::default(), &mut |st| {
                seen = st.components
            });
            assert!(out.fatal.is_none(), "{text}: {:?}", out.fatal);
            assert_eq!(out.format, Some(format), "{text}");
            assert_eq!(names(&out), [kept], "{text}");
            assert_eq!(out.stats.components, 1, "{text}");
            assert_eq!(out.stats.dependency_edges, edges, "{text}");
            // Progress counted both lists while the dialect was open.
            assert_eq!(seen, 2, "{text}");
        }
    }

    #[test]
    fn injected_fault_surfaces_as_injected_fatal() {
        let plan = FaultPlan {
            seed: 7,
            rules: vec![
                FaultRule::new(fault::sites::INGEST_DOC, 1_000_000, FaultAction::Error)
                    .for_key("ingest-fault-test"),
            ],
        };
        let guard = fault::install(plan);
        let opts = IngestOptions {
            chunk_size: DEFAULT_CHUNK,
            fault_key: "ingest-fault-test".to_string(),
        };
        let text = SbomFormat::CycloneDx.serialize(&sample("syft"));
        let out = ingest_reader(text.as_bytes(), opts, &mut |_| {});
        drop(guard);
        let fatal = out.fatal.expect("fault should surface");
        assert!(fault::is_injected(&fatal.message), "{}", fatal.message);
        assert_eq!(fatal.class, DiagClass::IoError);
    }
}
