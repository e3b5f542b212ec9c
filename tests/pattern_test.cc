// Tests for the pattern AST: Definition-1 structure, Section-2 composition
// rules, Section-9 sugar expansion and minimal-length unrolling, and the
// Section-9 disjunction, conjunction and star/optional patterns end to end
// through the engine.

#include "query/pattern.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::CountQuery;
using testing::ExpectMatchesOracle;
using testing::MakeGreta;
using testing::PaperCatalog;
using testing::RunEngine;
using testing::SingleCount;

TEST(PatternTest, FactoriesAndStructure) {
  auto catalog = PaperCatalog();
  TypeId a = catalog->FindType("A");
  TypeId b = catalog->FindType("B");
  PatternPtr p = Pattern::Plus(
      Pattern::Seq(Pattern::Plus(Pattern::Atom(a)), Pattern::Atom(b)));
  EXPECT_EQ(p->op(), PatternOp::kPlus);
  EXPECT_EQ(p->ToString(*catalog), "(SEQ((A)+, B))+");
  EXPECT_TRUE(p->IsPositive());
  EXPECT_TRUE(p->HasKleene());
  // Size (Definition 1): 2 event types + 3 operators.
  EXPECT_EQ(p->Size(), 5);
}

TEST(PatternTest, SeqFlattensNestedSequences) {
  auto catalog = PaperCatalog();
  PatternPtr inner = Pattern::Seq(Pattern::Atom(0), Pattern::Atom(1));
  PatternPtr p = Pattern::Seq(std::move(inner), Pattern::Atom(2));
  EXPECT_EQ(p->children().size(), 3u);
  EXPECT_EQ(p->ToString(*catalog), "SEQ(A, B, C)");
}

TEST(PatternTest, CloneAndEquals) {
  PatternPtr p = Pattern::Plus(
      Pattern::Seq(Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1)));
  PatternPtr q = p->Clone();
  EXPECT_TRUE(p->Equals(*q));
  PatternPtr other = Pattern::Plus(Pattern::Atom(0));
  EXPECT_FALSE(p->Equals(*other));
}

TEST(PatternTest, CollectAndRequiredTypes) {
  // SEQ(NOT C, A+, B?): required = {A}; positive possible = {A, B}.
  PatternPtr p = Pattern::Seq(
      Pattern::Not(Pattern::Atom(2)), Pattern::Plus(Pattern::Atom(0)),
      Pattern::Opt(Pattern::Atom(1)));
  EXPECT_EQ(p->CollectTypes(), (std::vector<TypeId>{0, 1, 2}));
  EXPECT_EQ(p->CollectTypes(/*include_negated=*/false),
            (std::vector<TypeId>{0, 1}));
  EXPECT_EQ(p->RequiredTypes(), (std::vector<TypeId>{0}));
}

TEST(PatternValidationTest, AcceptsPaperPatterns) {
  // Q1: S+; Q2: SEQ(S, M+, E); Q3: SEQ(NOT A, P+); Example 2's nested form.
  EXPECT_TRUE(ValidatePattern(*Pattern::Plus(Pattern::Atom(0))).ok());
  EXPECT_TRUE(ValidatePattern(*Pattern::Seq(Pattern::Atom(0),
                                            Pattern::Plus(Pattern::Atom(1)),
                                            Pattern::Atom(2)))
                  .ok());
  EXPECT_TRUE(ValidatePattern(*Pattern::Seq(Pattern::Not(Pattern::Atom(0)),
                                            Pattern::Plus(Pattern::Atom(1))))
                  .ok());
  PatternPtr nested = Pattern::Plus(Pattern::Seq(
      Pattern::Plus(Pattern::Atom(0)),
      Pattern::Not(Pattern::Seq(Pattern::Atom(2),
                                Pattern::Not(Pattern::Atom(4)),
                                Pattern::Atom(3))),
      Pattern::Atom(1)));
  EXPECT_TRUE(ValidatePattern(*nested).ok());
}

TEST(PatternValidationTest, RejectsOutermostNegation) {
  Status s = ValidatePattern(*Pattern::Not(Pattern::Atom(0)));
  EXPECT_FALSE(s.ok());
}

TEST(PatternValidationTest, RejectsKleeneOverNegation) {
  // (NOT P)+ == NOT P (Section 2).
  PatternPtr p = Pattern::Seq(Pattern::Atom(0),
                              Pattern::Plus(Pattern::Not(Pattern::Atom(1))));
  EXPECT_FALSE(ValidatePattern(*p).ok());
}

TEST(PatternValidationTest, RejectsConsecutiveNegations) {
  // SEQ(NOT Pi, NOT Pj) == NOT SEQ(Pi, Pj) (Section 2).
  PatternPtr p = Pattern::Seq(Pattern::Atom(0), Pattern::Not(Pattern::Atom(1)),
                              Pattern::Not(Pattern::Atom(2)), Pattern::Atom(3));
  EXPECT_FALSE(ValidatePattern(*p).ok());
}

TEST(PatternValidationTest, RejectsNegationOfKleene) {
  // NOT (P+) == NOT P (Section 2): negation applies to a type or sequence.
  PatternPtr p = Pattern::Seq(Pattern::Atom(0),
                              Pattern::Not(Pattern::Plus(Pattern::Atom(1))));
  EXPECT_FALSE(ValidatePattern(*p).ok());
}

TEST(SugarExpansionTest, StarBecomesPlusOrAbsent) {
  // SEQ(A*, B) == SEQ(A+, B) | B (Section 9).
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Seq(Pattern::Star(Pattern::Atom(0)),
                              Pattern::Atom(1));
  auto alts = ExpandSugar(*p);
  ASSERT_TRUE(alts.ok());
  ASSERT_EQ(alts.value().size(), 2u);
  EXPECT_EQ(alts.value()[0]->ToString(*catalog), "SEQ((A)+, B)");
  EXPECT_EQ(alts.value()[1]->ToString(*catalog), "B");
}

TEST(SugarExpansionTest, OptionalBecomesPresentOrAbsent) {
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Seq(Pattern::Opt(Pattern::Atom(0)),
                              Pattern::Atom(1));
  auto alts = ExpandSugar(*p);
  ASSERT_TRUE(alts.ok());
  ASSERT_EQ(alts.value().size(), 2u);
  EXPECT_EQ(alts.value()[0]->ToString(*catalog), "SEQ(A, B)");
  EXPECT_EQ(alts.value()[1]->ToString(*catalog), "B");
}

TEST(SugarExpansionTest, DisjunctionUnions) {
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Or(Pattern::Plus(Pattern::Atom(0)),
                             Pattern::Atom(1));
  auto alts = ExpandSugar(*p);
  ASSERT_TRUE(alts.ok());
  ASSERT_EQ(alts.value().size(), 2u);
}

TEST(SugarExpansionTest, DeduplicatesEqualAlternatives) {
  // SEQ(A?, B) | B: the bare-B alternative appears twice, kept once.
  PatternPtr p = Pattern::Or(
      Pattern::Seq(Pattern::Opt(Pattern::Atom(0)), Pattern::Atom(1)),
      Pattern::Atom(1));
  auto alts = ExpandSugar(*p);
  ASSERT_TRUE(alts.ok());
  EXPECT_EQ(alts.value().size(), 2u);
}

TEST(SugarExpansionTest, RejectsEmptyOnlyPattern) {
  // A* alone can match the empty trend; the only alternatives are A+ and
  // empty, and empty is dropped (Lemma 1) — A* == A+ effectively.
  auto alts = ExpandSugar(*Pattern::Star(Pattern::Atom(0)));
  ASSERT_TRUE(alts.ok());
  EXPECT_EQ(alts.value().size(), 1u);
  // But a pattern that is *only* empty is an error.
  PatternPtr p = Pattern::Opt(Pattern::Star(Pattern::Atom(0)));
  auto alts2 = ExpandSugar(*p);
  ASSERT_TRUE(alts2.ok());  // A+ survives.
  EXPECT_EQ(alts2.value().size(), 1u);
}

TEST(UnrollMinLengthTest, UnrollsKleenePlus) {
  // A+ with min length 3 -> SEQ(A, A, A+) (Section 9).
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Plus(Pattern::Atom(0));
  auto unrolled = UnrollMinLength(*p, 3);
  ASSERT_TRUE(unrolled.ok());
  EXPECT_EQ(unrolled.value()->ToString(*catalog), "SEQ(A, A, (A)+)");
  auto same = UnrollMinLength(*p, 1);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same.value()->Equals(*p));
  EXPECT_FALSE(UnrollMinLength(*p, 0).ok());
  EXPECT_FALSE(UnrollMinLength(*Pattern::Atom(0), 2).ok());
}

TEST(DisjunctionEngineTest, DisjointAlternativesSum) {
  // A+ | SEQ(C, D) on Figure 6: A+ = 15 (4 a's), SEQ(C,D) = c2->d6, c5->d6
  // = 2. Total 17.
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Or(
      Pattern::Plus(Pattern::Atom(0)),
      Pattern::Seq(Pattern::Atom(2), Pattern::Atom(3)));
  auto engine = MakeGreta(catalog.get(), CountQuery(std::move(p)));
  Stream stream = testing::Figure6Stream(catalog.get());
  EXPECT_EQ(SingleCount(RunEngine(engine.get(), stream)), "17");
}

TEST(DisjunctionEngineTest, OverlappingAlternativesRejected) {
  // A+ | SEQ(A, A) overlaps (both match pure-A trends), so the planner
  // cannot sum the alternatives and must reject the query.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Or(
      Pattern::Plus(Pattern::Atom(0)),
      Pattern::Seq(Pattern::Atom(0), Pattern::Atom(0))));
  auto engine = GretaEngine::Create(catalog.get(), spec);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(engine.status().message().find("not supported"),
            std::string::npos);
}

TEST(ConjunctionEngineTest, DisjointSidesMultiply) {
  // A+ & SEQ(C, D) on Figure 6: 15 * 2 = 30 paired trends.
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::And(
      Pattern::Plus(Pattern::Atom(0)),
      Pattern::Seq(Pattern::Atom(2), Pattern::Atom(3)));
  auto engine = MakeGreta(catalog.get(), CountQuery(std::move(p)));
  Stream stream = testing::Figure6Stream(catalog.get());
  EXPECT_EQ(SingleCount(RunEngine(engine.get(), stream)), "30");
}

TEST(ConjunctionEngineTest, ZeroSideYieldsNoRow) {
  // B+ & SEQ(D, E): the second side never matches (no E after d6).
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::And(
      Pattern::Plus(Pattern::Atom(1)),
      Pattern::Seq(Pattern::Atom(3), Pattern::Atom(4)));
  auto engine = MakeGreta(catalog.get(), CountQuery(std::move(p)));
  Stream stream = testing::Figure6Stream(catalog.get());
  EXPECT_TRUE(RunEngine(engine.get(), stream).empty());
}

TEST(ConjunctionEngineTest, RejectsNonCountAggregates) {
  auto catalog = PaperCatalog();
  QuerySpec spec;
  spec.pattern = Pattern::And(Pattern::Plus(Pattern::Atom(0)),
                              Pattern::Atom(1));
  spec.aggs = {{AggKind::kSum, 0, 0, "SUM(A.attr)"}};
  auto engine = GretaEngine::Create(catalog.get(), spec);
  EXPECT_FALSE(engine.ok());
}

TEST(StarDesugarTest, SeqStarMatchesOracle) {
  // SEQ(A*, B) == SEQ(A+, B) | B on Figure 6: 23 + 3 = 26.
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Seq(Pattern::Star(Pattern::Atom(0)),
                              Pattern::Atom(1));
  Stream stream = testing::Figure6Stream(catalog.get());
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), CountQuery(std::move(p)), stream);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "26");
}

TEST(StarDesugarTest, OptionalMatchesOracle) {
  // SEQ(A?, B) on Figure 6: pairs (a, b) with a < b: b2:1, b7:3, b9:4 = 8,
  // plus bare b's = 3 -> 11.
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Seq(Pattern::Opt(Pattern::Atom(0)),
                              Pattern::Atom(1));
  Stream stream = testing::Figure6Stream(catalog.get());
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), CountQuery(std::move(p)), stream);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "11");
}

TEST(StarDesugarTest, AggregatesCombineAcrossAlternatives) {
  // MIN/MAX/SUM over disjoint alternatives merge correctly.
  auto catalog = PaperCatalog();
  QuerySpec spec;
  spec.pattern = Pattern::Seq(Pattern::Star(Pattern::Atom(0)),
                              Pattern::Atom(1));
  AttrId attr = 0;
  spec.aggs = {
      {AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"},
      {AggKind::kMin, 0, attr, "MIN(A.attr)"},
      {AggKind::kSum, 0, attr, "SUM(A.attr)"},
  };
  Stream stream = testing::Figure12Stream(catalog.get());
  ExpectMatchesOracle(catalog.get(), spec, stream);
}

}  // namespace
}  // namespace greta
