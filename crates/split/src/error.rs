//! Error type for the split-computing substrate.

use std::fmt;

use mtlsplit_nn::NnError;
use mtlsplit_tensor::TensorError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SplitError>;

/// Errors raised by channel/device modelling and serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// A network-level operation failed (forward/backward through a model
    /// half).
    Network(NnError),
    /// A configuration value is invalid (zero bandwidth, loss probability
    /// outside `[0, 1)`, ...).
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// A serialized payload could not be decoded.
    MalformedPayload {
        /// Description of the problem.
        reason: String,
    },
    /// A model does not fit on the target edge device.
    InsufficientMemory {
        /// Bytes required by the deployment.
        required: usize,
        /// Bytes available on the device.
        available: usize,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::Tensor(err) => write!(f, "tensor operation failed: {err}"),
            SplitError::Network(err) => write!(f, "network operation failed: {err}"),
            SplitError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SplitError::MalformedPayload { reason } => write!(f, "malformed payload: {reason}"),
            SplitError::InsufficientMemory {
                required,
                available,
            } => write!(
                f,
                "deployment needs {required} bytes but the device has {available}"
            ),
        }
    }
}

impl std::error::Error for SplitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SplitError::Tensor(err) => Some(err),
            SplitError::Network(err) => Some(err),
            _ => None,
        }
    }
}

impl From<TensorError> for SplitError {
    fn from(err: TensorError) -> Self {
        SplitError::Tensor(err)
    }
}

impl From<NnError> for SplitError {
    fn from(err: NnError) -> Self {
        SplitError::Network(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_tensor_and_network_errors() {
        let t: SplitError = TensorError::EmptyTensor { op: "max" }.into();
        assert!(matches!(t, SplitError::Tensor(_)));
        let n: SplitError = NnError::MissingForwardCache { layer: "Linear" }.into();
        assert!(matches!(n, SplitError::Network(_)));
    }

    #[test]
    fn memory_error_reports_both_sides() {
        let err = SplitError::InsufficientMemory {
            required: 100,
            available: 50,
        };
        let text = err.to_string();
        assert!(text.contains("100") && text.contains("50"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SplitError>();
    }
}
