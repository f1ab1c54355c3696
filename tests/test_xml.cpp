// Tests for the XML parser (zero-copy Node DOM) and streaming Writer.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::xml {
namespace {

using omadrm::Error;

// Streams a parsed tree back out (attributes, then text, then children —
// the shape every document in the stack has), so structure comparisons
// are byte comparisons.
void rewrite(const Node& n, Writer& w) {
  w.open(n.name());
  for (const Attr* a = n.first_attr(); a; a = a->next) {
    w.attr(a->name, a->value);
  }
  w.text(n.text());
  for (const Node& c : n.children()) rewrite(c, w);
  w.close();
}

std::string reserialize(std::string_view doc) {
  Arena arena;
  std::string out;
  Writer w(out);
  rewrite(parse_in(arena, doc), w);
  return out;
}

// ---------------------------------------------------------------------------
// Writer output pinned to golden bytes. The persisted agent-state records
// and every signed ROAP payload depend on these exact encodings:
// `/>` for empty elements, the escaping below, attributes in insertion
// order.
// ---------------------------------------------------------------------------

TEST(XmlSerialize, SelfClosingAndNested) {
  std::string out;
  Writer w(out);
  w.open("a");
  w.open("b");
  w.close();
  w.text_element("c", "hi");
  w.close();
  EXPECT_EQ(out, "<a><b/><c>hi</c></a>");
}

TEST(XmlSerialize, EscapesSpecials) {
  std::string s;
  Writer w(s);
  w.open("t");
  w.attr("q", "say \"hi\" & 'bye'");
  w.text("a<b&c>d");
  w.close();
  EXPECT_EQ(s,
            "<t q=\"say &quot;hi&quot; &amp; &apos;bye&apos;\">"
            "a&lt;b&amp;c&gt;d</t>");
  Arena arena;
  const Node& back = parse_in(arena, s);
  EXPECT_EQ(back.text(), "a<b&c>d");
  EXPECT_EQ(*back.attr("q"), "say \"hi\" & 'bye'");
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(XmlParse, BasicDocument) {
  Arena arena;
  const Node& e =
      parse_in(arena, "<root a=\"1\" b='two'><kid>text</kid><kid2/></root>");
  EXPECT_EQ(e.name(), "root");
  EXPECT_EQ(*e.attr("a"), "1");
  EXPECT_EQ(*e.attr("b"), "two");
  EXPECT_EQ(e.child_count(), 2u);
  EXPECT_EQ(e.child_text("kid"), "text");
}

TEST(XmlParse, DeclarationCommentsAndWhitespace) {
  Arena arena;
  const Node& e = parse_in(
      arena,
      "<?xml version=\"1.0\"?>\n"
      "<!-- top comment -->\n"
      "<doc>\n  <!-- inner -->\n  <x>1</x>\n</doc>\n");
  EXPECT_EQ(e.name(), "doc");
  EXPECT_EQ(e.child_count(), 1u);
  EXPECT_EQ(e.text(), "");  // formatting whitespace dropped
}

TEST(XmlParse, Entities) {
  Arena arena;
  const Node& e =
      parse_in(arena, "<t>&lt;tag&gt; &amp; &quot;x&quot; &apos;y&apos;</t>");
  EXPECT_EQ(e.text(), "<tag> & \"x\" 'y'");
}

TEST(XmlParse, NumericCharacterReferences) {
  Arena arena;
  const Node& e = parse_in(arena, "<t>&#65;&#x42;&#xe9;</t>");
  EXPECT_EQ(e.text(), "AB\xc3\xa9");  // é in UTF-8
}

TEST(XmlParse, MixedContentKeepsText) {
  Arena arena;
  const Node& e = parse_in(arena, "<t>hello <b>bold</b> world</t>");
  EXPECT_EQ(e.child_count(), 1u);
  EXPECT_EQ(e.text(), "hello  world");
}

TEST(XmlParse, NamespacePrefixedNames) {
  Arena arena;
  const Node& e =
      parse_in(arena, "<o-ex:rights o-ex:id=\"r1\"><o-dd:play/></o-ex:rights>");
  EXPECT_EQ(e.name(), "o-ex:rights");
  EXPECT_EQ(*e.attr("o-ex:id"), "r1");
  EXPECT_EQ(e.first_child()->name(), "o-dd:play");
}

TEST(XmlParse, RejectsMalformed) {
  const char* bad[] = {
      "",
      "<a>",
      "<a></b>",
      "<a x=1/>",                  // unquoted attribute
      "<a x=\"1\" x=\"2\"/>",      // duplicate attr
      "<a>&bogus;</a>",
      "<a/><b/>",                  // two roots
      "<a><![CDATA[x]]></a>",
      "text only",
      "<1bad/>",
  };
  for (const char* doc : bad) {
    Arena arena;
    EXPECT_THROW(parse_in(arena, doc), Error) << doc;
  }
}

TEST(XmlRoundTrip, StructurePreserved) {
  std::string wire;
  Writer w(wire);
  w.open("o-ex:rights");
  w.attr("o-ex:id", "ro42");
  w.open("agreement");
  w.text_element("context", "cid:a&b");
  w.open("permission");
  w.open("play");
  w.close();
  w.close();
  w.close();
  w.close();
  EXPECT_EQ(wire,
            "<o-ex:rights o-ex:id=\"ro42\"><agreement>"
            "<context>cid:a&amp;b</context><permission><play/></permission>"
            "</agreement></o-ex:rights>");
  EXPECT_EQ(reserialize(wire), wire);
  // Indented input parses to the same structure: formatting whitespace
  // around child elements is dropped.
  EXPECT_EQ(reserialize("<o-ex:rights o-ex:id=\"ro42\">\n"
                        "  <agreement>\n"
                        "    <context>cid:a&amp;b</context>\n"
                        "    <permission>\n"
                        "      <play/>\n"
                        "    </permission>\n"
                        "  </agreement>\n"
                        "</o-ex:rights>\n"),
            wire);
}

TEST(XmlRoundTrip, DeepNesting) {
  std::string wire;
  Writer w(wire);
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    std::string name = "l";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  for (const std::string& name : names) w.open(name);
  w.text("deep");
  for (std::size_t i = 0; i < names.size(); ++i) w.close();
  EXPECT_EQ(reserialize(wire), wire);
  Arena arena;
  const Node* n = &parse_in(arena, wire);
  for (int i = 1; i < 40; ++i) n = n->first_child();
  EXPECT_EQ(n->name(), "l39");
  EXPECT_EQ(n->text(), "deep");
}

TEST(XmlChildren, NamedLookup) {
  Arena arena;
  const Node& e = parse_in(arena, "<r><x>1</x><y>2</y><x>3</x></r>");
  std::vector<std::string_view> xs;
  for (const Node* x : e.children_named("x")) xs.push_back(x->text());
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0], "1");
  EXPECT_EQ(xs[1], "3");
}

// ---------------------------------------------------------------------------
// Zero-copy arena parser (Node DOM)
// ---------------------------------------------------------------------------

TEST(NodeParse, BasicDocumentAndLookup) {
  Arena arena;
  const std::string doc =
      "<root a=\"1\" b='two'><kid>text</kid><kid2/><kid>more</kid></root>";
  const Node& n = parse_in(arena, doc);
  EXPECT_EQ(n.name(), "root");
  ASSERT_NE(n.attr("a"), nullptr);
  EXPECT_EQ(*n.attr("a"), "1");
  EXPECT_EQ(n.require_attr("b"), "two");
  EXPECT_EQ(n.attr("missing"), nullptr);
  EXPECT_THROW(n.require_attr("missing"), Error);
  EXPECT_EQ(n.child_count(), 3u);
  EXPECT_EQ(n.child_text("kid"), "text");
  EXPECT_THROW(n.require_child("nope"), Error);
  std::size_t kids = 0;
  for (const Node* k : n.children_named("kid")) {
    EXPECT_TRUE(k->text() == "text" || k->text() == "more");
    ++kids;
  }
  EXPECT_EQ(kids, 2u);
}

TEST(NodeParse, ViewsAliasTheDocumentWhenEscapeFree) {
  Arena arena;
  const std::string doc = "<r name=\"plain\">payload</r>";
  const Node& n = parse_in(arena, doc);
  const char* begin = doc.data();
  const char* end = doc.data() + doc.size();
  // Zero-copy: names, attribute values, and text point into `doc`.
  EXPECT_TRUE(n.name().data() >= begin && n.name().data() < end);
  EXPECT_TRUE(n.attr("name")->data() >= begin && n.attr("name")->data() < end);
  EXPECT_TRUE(n.text().data() >= begin && n.text().data() < end);
}

TEST(NodeParse, EntityDecodingFallsBackToArena) {
  Arena arena;
  const std::string doc = "<r q='a&amp;b &#65;'>x &lt;&gt; y</r>";
  const Node& n = parse_in(arena, doc);
  EXPECT_EQ(*n.attr("q"), "a&b A");
  EXPECT_EQ(n.text(), "x <> y");
}

TEST(NodeParse, AdjacentTextRunsConcatenate) {
  Arena arena;
  const Node& n = parse_in(arena, "<t>a<b/>c<b/>d</t>");
  EXPECT_EQ(n.text(), "acd");
  // Comments split runs too.
  Arena arena2;
  const Node& m = parse_in(arena2, "<t>one<!-- x -->two</t>");
  EXPECT_EQ(m.text(), "onetwo");
}

TEST(NodeParse, AttributeQuoteVariants) {
  Arena arena;
  const Node& n =
      parse_in(arena, "<r a=\"d'quote\" b='s\"quote' c = 'spaced'/>");
  EXPECT_EQ(*n.attr("a"), "d'quote");
  EXPECT_EQ(*n.attr("b"), "s\"quote");
  EXPECT_EQ(*n.attr("c"), "spaced");
}

TEST(NodeParse, ArenaResetReusesStorage) {
  Arena arena;
  const std::string doc = "<r a='1'><x>one</x><y>two</y></r>";
  (void)parse_in(arena, doc);
  const std::size_t cap = arena.capacity();
  for (int i = 0; i < 64; ++i) {
    arena.reset();
    const Node& n = parse_in(arena, doc);
    EXPECT_EQ(n.child_text("x"), "one");
  }
  EXPECT_EQ(arena.capacity(), cap);  // steady state: no further growth
}

TEST(NodeParse, DeepNestingWithinLimit) {
  std::string doc;
  const int depth = 100;
  for (int i = 0; i < depth; ++i) doc += "<d>";
  doc += "x";
  for (int i = 0; i < depth; ++i) doc += "</d>";
  Arena arena;
  const Node* n = &parse_in(arena, doc);
  for (int i = 1; i < depth; ++i) n = n->first_child();
  EXPECT_EQ(n->text(), "x");
}

TEST(NodeParse, PathologicalNestingRejectedNotCrash) {
  std::string doc;
  for (int i = 0; i < 5000; ++i) doc += "<d>";
  Arena arena;
  EXPECT_THROW(parse_in(arena, doc), Error);
}

TEST(NodeParse, TruncationFuzzEveryOffset) {
  // A document exercising attributes, both quote styles, entities,
  // character references, comments, nesting, and self-closing tags.
  // Every strict prefix must be cleanly rejected — never accepted, never
  // a crash — because a truncated envelope is the most common corrupt
  // wire input.
  const std::string doc =
      "<?xml version=\"1.0\"?><!-- hdr --><roap:msg a=\"1&amp;2\" "
      "b='&#65;'><kid>t&lt;x</kid><!-- c --><leaf/></roap:msg>";
  Arena arena;
  (void)parse_in(arena, doc);  // the full document parses
  for (std::size_t len = 0; len < doc.size(); ++len) {
    arena.reset();
    EXPECT_THROW(parse_in(arena, doc.substr(0, len)), Error)
        << "prefix length " << len << " unexpectedly accepted";
  }
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

TEST(XmlWriter, BuildsCompactDocuments) {
  std::string out;
  Writer w(out);
  w.open("a");
  w.attr("k", "v");
  w.open("b");
  w.close();
  w.text_element("c", "hi");
  w.close();
  EXPECT_TRUE(w.finished());
  EXPECT_EQ(out, "<a k=\"v\"><b/><c>hi</c></a>");
}

TEST(XmlWriter, ReusesBufferCapacity) {
  std::string out;
  {
    Writer w(out);
    w.open("big");
    w.text(std::string(512, 'x'));
    w.close();
  }
  const std::size_t cap = out.capacity();
  Writer w2(out);  // clears content, keeps capacity
  w2.open("small");
  w2.close();
  EXPECT_EQ(out, "<small/>");
  EXPECT_EQ(out.capacity(), cap);
}

TEST(XmlWriter, MatchesGoldenBytes) {
  std::string streamed;
  Writer w(streamed);
  w.open("o-ex:rights");
  w.attr("o-ex:id", "ro&1");
  w.text_element("kid", "a<b");
  w.open("empty");
  w.close();
  w.close();
  EXPECT_EQ(streamed,
            "<o-ex:rights o-ex:id=\"ro&amp;1\"><kid>a&lt;b</kid><empty/>"
            "</o-ex:rights>");
  // Empty text and empty base64 keep the self-closing form; attributes
  // stay in insertion order.
  Writer w2(streamed);
  w2.open("domain-key");
  w2.attr("id", "d");
  w2.attr("generation", "1");
  w2.base64({});
  w2.text("");
  w2.close();
  EXPECT_EQ(streamed, "<domain-key id=\"d\" generation=\"1\"/>");
}

TEST(XmlWriter, MisuseThrows) {
  std::string out;
  Writer w(out);
  EXPECT_THROW(w.close(), Error);            // nothing open
  EXPECT_THROW(w.text("x"), Error);          // outside root
  w.open("a");
  w.text("body");
  EXPECT_THROW(w.attr("k", "v"), Error);     // tag already sealed
  w.close();
  EXPECT_THROW(w.open("second-root"), Error);
}

// ---------------------------------------------------------------------------
// Escaping: byte-exact round trips, including control characters in
// attribute values.
// ---------------------------------------------------------------------------

TEST(XmlEscape, ControlCharactersRoundTripByteExact) {
  std::string wire;
  Writer w(wire);
  w.open("t");
  w.attr("q", "tab\there\r\nnext");
  w.text("line1\r\nline2");
  w.close();
  EXPECT_EQ(wire, "<t q=\"tab&#9;here&#13;&#10;next\">line1&#13;\nline2</t>");
  // \r in text and \r \n \t in attributes must travel as character
  // references, never as raw bytes a normalizing parser would mangle.
  EXPECT_EQ(wire.find('\r'), std::string::npos);
  EXPECT_NE(wire.find("&#13;"), std::string::npos);
  EXPECT_NE(wire.find("&#10;"), std::string::npos);
  EXPECT_NE(wire.find("&#9;"), std::string::npos);

  Arena arena;
  const Node& back = parse_in(arena, wire);
  EXPECT_EQ(back.text(), "line1\r\nline2");
  EXPECT_EQ(*back.attr("q"), "tab\there\r\nnext");
  // Serialize → parse → serialize is a fixed point.
  EXPECT_EQ(reserialize(wire), wire);
}

TEST(XmlEscape, ReserveIsExact) {
  std::string out;
  escape_text_into("a&b<c>d\re", out);
  EXPECT_EQ(out, "a&amp;b&lt;c&gt;d&#13;e");
  std::string attr;
  escape_attr_into("\"'\t\n\r", attr);
  EXPECT_EQ(attr, "&quot;&apos;&#9;&#10;&#13;");
}

}  // namespace
}  // namespace omadrm::xml
