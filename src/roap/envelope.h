// ROAP wire envelope — the unit a Transport carries.
//
// An Envelope is a type tag plus the *serialized* XML document of exactly
// one ROAP message, with a zero-copy parse of those bytes riding along
// (so each document is parsed exactly once per hop). Wrapping streams
// the message into the retained wire buffer and immediately parses it,
// so every envelope's DOM is by construction derived from its serialized
// bytes — anything that crosses a Transport has survived a full
// serialize→parse round trip, the seam where a real network, a proxy
// device, or a fault injector can sit.
//
// Buffers recycle: an envelope draws its wire string and parse arena
// from a thread-local pool and returns them on destruction, so steady
// state traffic wraps, parses, and opens envelopes without touching the
// heap (the decoded message structs are the only remaining owners).
// Copying an envelope re-parses its bytes; moving is pointer-cheap.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"
#include "roap/messages.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::roap {

enum class MessageType : std::uint8_t {
  kDeviceHello,
  kRiHello,
  kRegistrationRequest,
  kRegistrationResponse,
  kRoRequest,
  kRoResponse,
  kJoinDomainRequest,
  kJoinDomainResponse,
  kLeaveDomainRequest,
  kLeaveDomainResponse,
  kRoAcquisitionTrigger,
};

/// "RegistrationRequest", ... (stable, human-oriented).
const char* to_string(MessageType t);
/// The XML root element carrying this type ("roap:registrationRequest").
const char* root_element(MessageType t);
/// True for the five client→RI request documents an RI can serve.
bool is_request(MessageType t);

/// Compile-time message↔type mapping; specialized for every ROAP message.
template <typename Msg>
struct MessageTraits;

template <> struct MessageTraits<DeviceHello> {
  static constexpr MessageType kType = MessageType::kDeviceHello;
};
template <> struct MessageTraits<RiHello> {
  static constexpr MessageType kType = MessageType::kRiHello;
};
template <> struct MessageTraits<RegistrationRequest> {
  static constexpr MessageType kType = MessageType::kRegistrationRequest;
};
template <> struct MessageTraits<RegistrationResponse> {
  static constexpr MessageType kType = MessageType::kRegistrationResponse;
};
template <> struct MessageTraits<RoRequest> {
  static constexpr MessageType kType = MessageType::kRoRequest;
};
template <> struct MessageTraits<RoResponse> {
  static constexpr MessageType kType = MessageType::kRoResponse;
};
template <> struct MessageTraits<JoinDomainRequest> {
  static constexpr MessageType kType = MessageType::kJoinDomainRequest;
};
template <> struct MessageTraits<JoinDomainResponse> {
  static constexpr MessageType kType = MessageType::kJoinDomainResponse;
};
template <> struct MessageTraits<LeaveDomainRequest> {
  static constexpr MessageType kType = MessageType::kLeaveDomainRequest;
};
template <> struct MessageTraits<LeaveDomainResponse> {
  static constexpr MessageType kType = MessageType::kLeaveDomainResponse;
};
template <> struct MessageTraits<RoAcquisitionTrigger> {
  static constexpr MessageType kType = MessageType::kRoAcquisitionTrigger;
};

class Envelope {
 public:
  Envelope() = default;
  ~Envelope();
  Envelope(Envelope&& other) noexcept;
  Envelope& operator=(Envelope&& other) noexcept;
  /// Copying re-parses the wire bytes into the copy's own arena.
  Envelope(const Envelope& other);
  Envelope& operator=(const Envelope& other);

  /// Serializes a message into its envelope: streams the document into
  /// the pooled wire buffer and parses it back (zero-copy), so the
  /// retained DOM is exactly the parse of the retained bytes.
  template <typename Msg>
  static Envelope wrap(const Msg& msg) {
    Envelope env = acquire();
    xml::Writer w(env.wire_);
    msg.write(w);
    env.adopt(MessageTraits<Msg>::kType);
    return env;
  }

  /// Parses raw wire bytes: must be a well-formed XML document whose root
  /// element is a known ROAP message. Throws omadrm::Error(kFormat)
  /// otherwise. The bytes are kept verbatim (copied into the pooled
  /// buffer).
  static Envelope from_wire(std::string_view wire);

  MessageType type() const { return type_; }
  /// The serialized XML document.
  const std::string& wire() const { return wire_; }
  std::size_t size() const { return wire_.size(); }
  /// True for a default-constructed or moved-from envelope.
  bool empty() const { return doc_ == nullptr; }

  /// The zero-copy parse of wire(). Throws omadrm::Error(kState) on an
  /// empty envelope.
  const xml::Node& doc() const;

  /// Decodes the document as the given message type. Throws
  /// omadrm::Error(kProtocol) when the envelope holds a different type,
  /// omadrm::Error(kFormat) when the document's content is malformed.
  template <typename Msg>
  Msg open() const {
    if (type_ != MessageTraits<Msg>::kType) {
      throw Error(ErrorKind::kProtocol,
                  std::string("roap: envelope holds ") + to_string(type_) +
                      ", expected " +
                      to_string(MessageTraits<Msg>::kType));
    }
    return Msg::from_node(doc());
  }

 private:
  /// An envelope whose wire buffer / arena come from the thread pool.
  static Envelope acquire();
  /// Parses wire_ into arena_ and records the type (wrap side: the root
  /// element is trusted to match `t`, which wrap() just serialized).
  void adopt(MessageType t);
  void release() noexcept;

  MessageType type_ = MessageType::kDeviceHello;
  std::string wire_;
  xml::Arena arena_;
  const xml::Node* doc_ = nullptr;  // parse of wire_, inside arena_
};

}  // namespace omadrm::roap
