//! Typed serving errors, wire-serializable.
//!
//! Every failure the daemon can hit — a malformed frame, an unknown
//! building, a corrupt or unreadable artifact, a failed inference, an
//! oversized batch — maps onto one [`ServeError`] variant, which in turn
//! maps onto one stable `kind` string on the wire. The daemon **never**
//! crashes on bad input; it answers with one of these.

use std::fmt;

use fis_core::FisError;
use fis_types::json::Json;

/// A serving-layer failure, tagged for the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request frame was not valid JSON or not a valid request shape.
    Protocol(String),
    /// No artifact exists for the requested building id.
    UnknownBuilding(String),
    /// The artifact failed to load or validate (unreadable file,
    /// corrupt JSON, schema mismatch, id mismatch).
    Model(String),
    /// Per-scan inference failed (e.g. no MAC known to the model).
    Inference(String),
    /// The request exceeded a configured budget (e.g. batch size).
    Capacity(String),
    /// The daemon is shutting down and no longer accepts work.
    Shutdown(String),
}

impl ServeError {
    /// The stable wire tag of this error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Protocol(_) => "protocol",
            ServeError::UnknownBuilding(_) => "unknown_building",
            ServeError::Model(_) => "model",
            ServeError::Inference(_) => "inference",
            ServeError::Capacity(_) => "capacity",
            ServeError::Shutdown(_) => "shutdown",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            ServeError::Protocol(m)
            | ServeError::UnknownBuilding(m)
            | ServeError::Model(m)
            | ServeError::Inference(m)
            | ServeError::Capacity(m)
            | ServeError::Shutdown(m) => m,
        }
    }

    /// The wire form: `{"kind": "...", "message": "..."}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind().to_owned())),
            ("message", Json::Str(self.message().to_owned())),
        ])
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for ServeError {}

impl From<FisError> for ServeError {
    fn from(e: FisError) -> Self {
        match e {
            FisError::Model(m) => ServeError::Model(m),
            FisError::Inference(m) => ServeError::Inference(m),
            other => ServeError::Model(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_wire_tags() {
        assert_eq!(ServeError::Protocol("x".into()).kind(), "protocol");
        assert_eq!(
            ServeError::UnknownBuilding("x".into()).kind(),
            "unknown_building"
        );
        assert_eq!(ServeError::Model("x".into()).kind(), "model");
        assert_eq!(ServeError::Inference("x".into()).kind(), "inference");
        assert_eq!(ServeError::Capacity("x".into()).kind(), "capacity");
        assert_eq!(ServeError::Shutdown("x".into()).kind(), "shutdown");
    }

    #[test]
    fn wire_form_has_kind_and_message() {
        let json = ServeError::UnknownBuilding("no artifact for `hq`".into()).to_json();
        assert_eq!(json.get("kind").unwrap().as_str(), Some("unknown_building"));
        assert_eq!(
            json.get("message").unwrap().as_str(),
            Some("no artifact for `hq`")
        );
    }

    #[test]
    fn fis_errors_map_onto_serve_kinds() {
        assert_eq!(
            ServeError::from(FisError::Inference("no known MAC".into())).kind(),
            "inference"
        );
        assert_eq!(
            ServeError::from(FisError::Model("corrupt".into())).kind(),
            "model"
        );
        assert_eq!(
            ServeError::from(FisError::Graph("bad".into())).kind(),
            "model"
        );
    }
}
