// Zero-copy XML DOM view — the only XML reader in the stack.
//
// OMA DRM 2 carries Rights Objects (REL) and ROAP messages as XML; the
// paper leaves XML handling out of its cycle model ("these components
// cannot easily be accelerated by dedicated hardware cells"), so the
// stack keeps one parser (this) and one serializer (writer.h). Supported:
// elements, attributes (single- or double-quoted), character data with
// the five predefined entities plus decimal/hex character references,
// comments, processing instructions, and self-closing tags. Rejected
// cleanly: DTDs, CDATA sections, namespaces beyond literal prefixed names.
//
// A Node tree is produced by parse_in() in a single pass over the
// document: element names, attribute values, and character data are
// string_views that alias the input buffer wherever possible (entity
// decoding and multi-segment text fall back to Arena storage). The tree
// borrows both the Arena and the document bytes — keep both alive for as
// long as the Nodes are used. This is the wire-path DOM: the ROAP
// envelope retains its serialized bytes anyway, so the parse costs no
// string copies and, once the arena is warm, no heap allocations at all.
#pragma once

#include <cstddef>
#include <string_view>

#include "xml/arena.h"

namespace omadrm::xml {

struct Attr {
  std::string_view name;
  std::string_view value;
  const Attr* next = nullptr;
};

class Node {
 public:
  std::string_view name() const { return name_; }
  /// Concatenated character data directly inside this element.
  std::string_view text() const { return text_; }

  // -- attributes ---------------------------------------------------------
  const Attr* first_attr() const { return first_attr_; }
  /// nullptr when absent.
  const std::string_view* attr(std::string_view key) const;
  /// Throws omadrm::Error(kFormat) when absent.
  std::string_view require_attr(std::string_view key) const;

  // -- children -----------------------------------------------------------
  const Node* first_child() const { return first_child_; }
  const Node* next_sibling() const { return next_sibling_; }

  class ChildIter {
   public:
    explicit ChildIter(const Node* p) : p_(p) {}
    const Node& operator*() const { return *p_; }
    ChildIter& operator++() {
      p_ = p_->next_sibling_;
      return *this;
    }
    bool operator!=(const ChildIter& o) const { return p_ != o.p_; }

   private:
    const Node* p_;
  };

  class ChildRange {
   public:
    explicit ChildRange(const Node* first) : first_(first) {}
    ChildIter begin() const { return ChildIter(first_); }
    ChildIter end() const { return ChildIter(nullptr); }

   private:
    const Node* first_;
  };

  /// Iterates children (yields const Node&), allocation-free.
  ChildRange children() const { return ChildRange(first_child_); }

  class NamedIter {
   public:
    NamedIter(const Node* p, std::string_view name) : p_(p), name_(name) {
      skip();
    }
    const Node* operator*() const { return p_; }
    NamedIter& operator++() {
      p_ = p_->next_sibling_;
      skip();
      return *this;
    }
    bool operator!=(const NamedIter& o) const { return p_ != o.p_; }

   private:
    void skip() {
      while (p_ && p_->name_ != name_) p_ = p_->next_sibling_;
    }
    const Node* p_;
    std::string_view name_;
  };

  class NamedRange {
   public:
    NamedRange(const Node* first, std::string_view name)
        : first_(first), name_(name) {}
    NamedIter begin() const { return NamedIter(first_, name_); }
    NamedIter end() const { return NamedIter(nullptr, name_); }

   private:
    const Node* first_;
    std::string_view name_;
  };

  /// Children with the given name (yields const Node*), allocation-free.
  NamedRange children_named(std::string_view name) const {
    return NamedRange(first_child_, name);
  }

  /// First child with the given name; nullptr when absent.
  const Node* child(std::string_view name) const;
  /// Throws omadrm::Error(kFormat) when absent.
  const Node& require_child(std::string_view name) const;
  /// Text of a required child.
  std::string_view child_text(std::string_view name) const;

  std::size_t child_count() const;

 private:
  friend struct NodeBuilder;

  std::string_view name_;
  std::string_view text_;
  const Attr* first_attr_ = nullptr;
  Node* first_child_ = nullptr;
  Node* next_sibling_ = nullptr;
};

/// Parses a document into `arena` without copying names or (escape-free)
/// content: the returned tree aliases `doc` and the arena. Throws
/// omadrm::Error(kFormat) on malformed input. `doc` and `arena` must
/// outlive the tree.
const Node& parse_in(Arena& arena, std::string_view doc);

/// Hard recursion bound for parse_in (rejected as kFormat, not a crash).
inline constexpr std::size_t kMaxParseDepth = 128;

}  // namespace omadrm::xml
