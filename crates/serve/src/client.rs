//! A minimal blocking client for the front door — one connection, one
//! in-flight request at a time, request ids checked on every response.
//!
//! This is the client the examples, tests and serving bench use; it is
//! deliberately synchronous (std-only) and surfaces every server-side
//! refusal as a typed [`ClientError::Server`].

use crate::protocol::{
    decode_response, encode_request, Request, RequestFrame, Response, ResponseFrame,
    ServeErrorKind, WireIngestReport, WireRecommendation, RP,
};
use reptile_relational::codec::{read_frame, write_frame, CodecError, StreamError};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(StreamError),
    /// The response body did not decode.
    Decode(CodecError),
    /// The server closed the connection before answering.
    Closed,
    /// The response id or variant did not match the request.
    UnexpectedResponse(String),
    /// The server answered with a typed error.
    Server {
        /// Which typed refusal the server returned.
        kind: ServeErrorKind,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "wire failure: {err}"),
            ClientError::Decode(err) => write!(f, "response decode failure: {err}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse(detail) => {
                write!(f, "unexpected response: {detail}")
            }
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<StreamError> for ClientError {
    fn from(err: StreamError) -> Self {
        ClientError::Wire(err)
    }
}

impl From<CodecError> for ClientError {
    fn from(err: CodecError) -> Self {
        ClientError::Decode(err)
    }
}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Wire(StreamError::Io(err))
    }
}

/// One blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to a front door.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream, next_id: 1 })
    }

    fn round_trip(&mut self, request: Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_request(&RequestFrame { id, request });
        write_frame(&mut self.stream, &RP, &payload)?;
        let Some(reply) = read_frame(&mut self.stream, &RP)? else {
            return Err(ClientError::Closed);
        };
        let ResponseFrame {
            id: reply_id,
            response,
        } = decode_response(&reply)?;
        // Protocol-level errors come back with id 0 (the server could not
        // trust the request header); everything else must echo our id.
        if reply_id != id && reply_id != 0 {
            return Err(ClientError::UnexpectedResponse(format!(
                "request id {id}, response id {reply_id}"
            )));
        }
        Ok(response)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Send a recommend request and wait for its typed outcome.
    pub fn recommend(
        &mut self,
        request: crate::protocol::RecommendRequest,
    ) -> Result<WireRecommendation, ClientError> {
        match self.round_trip(Request::Recommend(request))? {
            Response::Recommendation(rec) => Ok(rec),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Apply an ingest batch through the front door and wait for its
    /// report. The server applies the batch atomically: one new relation
    /// snapshot version, same semantics as every in-process ingest surface.
    pub fn ingest(
        &mut self,
        request: crate::protocol::IngestRequest,
    ) -> Result<WireIngestReport, ClientError> {
        match self.round_trip(Request::Ingest(request))? {
            Response::IngestReport(report) => Ok(report),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}
