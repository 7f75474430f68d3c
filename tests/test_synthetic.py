"""Synthetic corpus generation: determinism, counts, planted structure."""

from __future__ import annotations

import hashlib

import pytest

from refclass.corpus import emit_corpus, validate_corpus
from refclass.errors import ConfigError
from refclass.synthetic import SyntheticConfig, field_category, generate_synthetic
from refclass.taxonomy import emit_taxonomy


def small_config(**overrides) -> SyntheticConfig:
    base = dict(
        num_fields=2,
        journals_per_field=1,
        num_general_journals=0,
        articles_per_journal_year=10,
        year_range=(2000, 2002),
        mean_refs=4.0,
        p_intra=0.8,
        field_citation_rate=1.0,
        general_field_mix=(0.5, 0.5),
        seed=11,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


def test_exact_counts_without_general_journals():
    corpus, truth, taxonomy = generate_synthetic(small_config())
    # 2 fields x 1 journal x 10 articles/year x 3 years
    assert len(corpus.articles) == 60
    assert len(corpus.journals) == 2
    assert set(truth.field_of) == set(corpus.articles)
    assert len(taxonomy) == 2  # no general journals -> no catch-all category


def test_same_seed_is_byte_identical():
    cfg = small_config(num_general_journals=1, seed=321)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert emit_corpus(a[0]) == emit_corpus(b[0])
    assert a[1] == b[1]
    assert emit_taxonomy(a[2]) == emit_taxonomy(b[2])


def test_output_digests_are_pinned():
    # Recorded from the record-building generator this one replaced; the
    # draw order and every emitted byte must not move.
    cfg = SyntheticConfig(
        num_fields=3,
        journals_per_field=2,
        num_general_journals=2,
        articles_per_journal_year=12,
        year_range=(2000, 2003),
        mean_refs=6.0,
        p_intra=0.7,
        field_citation_rate=(1.0, 1.5, 2.0),
        general_field_mix=(0.5, 0.25, 0.25),
        seed=4242,
    )
    corpus, truth, taxonomy = generate_synthetic(cfg)
    truth_text = "\n".join(truth.as_lines(taxonomy)) + "\n"
    assert hashlib.sha256(emit_corpus(corpus).encode()).hexdigest() == (
        "1d4763bf0a374acd251e59b64d9f37ef2795ac9544e8029ecc6266e2f4c1c160"
    )
    assert hashlib.sha256(truth_text.encode()).hexdigest() == (
        "51cdcc9fac86e1f01ce22b38f9a656a031d3c099d4ac91297fa6302d0c8f19bb"
    )


EDGE_BASE = dict(
    num_fields=3,
    journals_per_field=2,
    num_general_journals=2,
    articles_per_journal_year=5,
    year_range=(2000, 2002),
    mean_refs=4.0,
    p_intra=0.7,
    field_citation_rate=1.0,
    general_field_mix=(0.5, 0.25, 0.25),
    seed=77,
)


@pytest.mark.parametrize(
    "overrides, corpus_sha, truth_sha, field_of_sha",
    [
        pytest.param(
            dict(p_intra=0.0),
            "c78211176916e8e67667105bf517953835cd4a6c4c66e110d5f7eb02eb76f414",
            "1100daf807429ee7d9109de258e17f3270ead54808817879ec62f04d747512dd",
            "31827f9e2979d49bf435b856bf8d617c6c408df3c414811e2b18f5063ee5b49f",
            id="p_intra-0",
        ),
        pytest.param(
            dict(p_intra=1.0),
            "eb127d69fd452f14054ef3b0c9ff69c25825c82f1f7257962607340bc7396ac4",
            "1100daf807429ee7d9109de258e17f3270ead54808817879ec62f04d747512dd",
            "31827f9e2979d49bf435b856bf8d617c6c408df3c414811e2b18f5063ee5b49f",
            id="p_intra-1",
        ),
        pytest.param(
            dict(num_fields=4, general_field_mix=(0.0, 0.75, 0.0, 0.25)),
            "54142511f8282048d9b3363a11f00ae732703e3d561c72574c373763b1e52a10",
            "84273dbe8b3cfcad951fb28abb7a777a6c146438c8cbdf78c0c46f2b05a6dac4",
            "8bd2c0a0fc4958b2d2ee7617ce5e3c2ddc08b9a60de66adbac62d01c6bf040dc",
            id="zero-mix-entries",
        ),
        pytest.param(
            dict(articles_per_journal_year=1, journals_per_field=1, num_general_journals=1),
            "2a3f99f7129084cdd05a1d98b132dd94bdb063e581cb615eea67e946792aa38a",
            "5df2ba599836d00058e1b3249eabc3530561734edd78463c1e10c30706073701",
            "44ebd91f047b4c0fb8b5ddf880ef59430d23331d8912927c0181e6fd3d2227b1",
            id="one-article-per-journal-year",
        ),
        pytest.param(
            dict(year_range=(2005, 2005)),
            "0b63e2021d607f7a4e427f2051b6583c56a43e1ae5be0839bf75a0be71b2faa9",
            "473c23987018c16b1692fb10f51ddcb68f8eb0ee2f62ea022d81d6d182e3a51d",
            "66c340137880c903a4406412a360752b5022371d438917406d60618b6aae27af",
            id="single-year",
        ),
        pytest.param(
            dict(mean_refs=0.01),
            "2cb2ba59508571602f5a4c48cc95372ab6be39d2f7fb736dc0eb3ab5d292b081",
            "1100daf807429ee7d9109de258e17f3270ead54808817879ec62f04d747512dd",
            "31827f9e2979d49bf435b856bf8d617c6c408df3c414811e2b18f5063ee5b49f",
            id="sparse-references",
        ),
        pytest.param(
            dict(field_citation_rate={2: 0.5, 0: 2.0, 1: 1.25}),
            "3f0ec7a06fb57c1bcc7b8f4d42e4c490bd0d2604247a359aef0e6c8c71eed2ea",
            "1100daf807429ee7d9109de258e17f3270ead54808817879ec62f04d747512dd",
            "31827f9e2979d49bf435b856bf8d617c6c408df3c414811e2b18f5063ee5b49f",
            id="rate-mapping",
        ),
    ],
)
def test_edge_config_digests_are_pinned(overrides, corpus_sha, truth_sha, field_of_sha):
    """Every byte of the edge configs, recorded at commit 38fff61.

    That commit laid out rows one Python call at a time. The configs reach
    empty intra pools, all-intra and all-inter references, general journals
    with zero-quota fields, years without organic references and a run with
    no citing year; the layout and the draw order must not move on any.
    """
    corpus, truth, taxonomy = generate_synthetic(SyntheticConfig(**{**EDGE_BASE, **overrides}))
    truth_text = "\n".join(truth.as_lines(taxonomy)) + "\n"
    assert hashlib.sha256(emit_corpus(corpus).encode()).hexdigest() == corpus_sha
    assert hashlib.sha256(truth_text.encode()).hexdigest() == truth_sha
    assert hashlib.sha256(repr(sorted(truth.field_of.items())).encode()).hexdigest() == field_of_sha


def test_different_seed_differs():
    a = generate_synthetic(small_config(seed=1))
    b = generate_synthetic(small_config(seed=2))
    assert emit_corpus(a[0]) != emit_corpus(b[0])


def test_taxonomy_maps_fields_to_distinct_areas():
    cfg = small_config(num_fields=5, general_field_mix=(0.2,) * 5, field_citation_rate=0.5)
    _, _, taxonomy = generate_synthetic(cfg)
    areas = [taxonomy.broad_area_of(field_category(f)) for f in range(5)]
    assert len(set(areas)) == 5


def test_general_journals_flagged_multidisciplinary():
    cfg = small_config(num_general_journals=2)
    corpus, truth, taxonomy = generate_synthetic(cfg)
    general = [j for j in corpus.journals.values() if j.id.startswith("JG")]
    assert len(general) == 2
    for j in general:
        assert not taxonomy.is_classifier_journal(j)
    regular = [j for j in corpus.journals.values() if j.id.startswith("JF")]
    for j in regular:
        assert taxonomy.is_classifier_journal(j)


def test_general_field_quota_is_exact_per_cohort():
    cfg = small_config(
        num_fields=4,
        num_general_journals=1,
        articles_per_journal_year=20,
        general_field_mix=(0.5, 0.25, 0.15, 0.1),
        field_citation_rate=(1.0, 1.0, 1.0, 1.0),
    )
    corpus, truth, _ = generate_synthetic(cfg)
    for year in (2000, 2001, 2002):
        cohort = [
            a.id
            for a in corpus.articles.values()
            if a.journal_id == "JG00" and a.year == year
        ]
        counts = [0] * 4
        for a_id in cohort:
            counts[truth.field_of[a_id]] += 1
        assert counts == [10, 5, 3, 2]


def test_no_dangling_refs_and_valid_corpus():
    cfg = small_config(num_general_journals=1, articles_per_journal_year=30)
    corpus, truth, taxonomy = generate_synthetic(cfg)
    report = validate_corpus(corpus)
    assert report.dangling_references == 0
    assert report.doc_type_counts == {"article": len(corpus.articles)}
    for j in corpus.journals.values():
        for cat in j.categories:
            assert cat in taxonomy
    # every citation-index year matches the citing article's year
    for entries in corpus.citation_index.values():
        for citer, year in entries:
            assert corpus.articles[citer].year == year


def test_intra_field_reference_fraction():
    # ~11k articles; tiny citation rate so appended citation edges cannot
    # push the measured fraction off the configured p_intra
    cfg = SyntheticConfig(
        num_fields=5,
        journals_per_field=3,
        num_general_journals=0,
        articles_per_journal_year=250,
        year_range=(2000, 2002),
        mean_refs=20.0,
        p_intra=0.8,
        field_citation_rate=0.05,
        general_field_mix=(0.2,) * 5,
        seed=2024,
    )
    corpus, truth, _ = generate_synthetic(cfg)
    assert len(corpus.articles) >= 10_000
    intra = total = 0
    for art in corpus.articles.values():
        own = truth.field_of[art.id]
        for ref in art.references:
            total += 1
            intra += truth.field_of[ref] == own
    assert total > 0
    assert abs(intra / total - 0.8) <= 0.02


def test_references_never_point_forward_in_time():
    # organic references are same-year; citation edges point backward
    corpus, _, _ = generate_synthetic(small_config(num_general_journals=1, seed=9))
    for art in corpus.articles.values():
        for ref in art.references:
            assert corpus.articles[ref].year <= art.year


def test_config_keeps_rows_and_one_year_of_draws_below_2_31():
    # small_config: 20 articles a year, 60 in all.
    with pytest.raises(ConfigError, match="^articles_per_journal_year "):
        small_config(articles_per_journal_year=10**12)
    with pytest.raises(ConfigError, match="^articles_per_journal_year "):
        small_config(articles_per_journal_year=-(-(2**31) // 6), mean_refs=1e-9)
    small_config(articles_per_journal_year=2**31 // 6, mean_refs=1e-9, field_citation_rate=1e-9)
    with pytest.raises(ConfigError, match="^mean_refs "):
        small_config(mean_refs=2**31 / 20)
    small_config(mean_refs=2**31 / 20 - 1)
    with pytest.raises(ConfigError, match="^field_citation_rate "):
        small_config(field_citation_rate=(1.0, 2**31 / 60))
    small_config(field_citation_rate=(1.0, 2**31 / 60 - 1))
    # Two articles: numpy could not allocate the draws of a mean of 2**62.
    with pytest.raises(ConfigError, match="^mean_refs "):
        small_config(articles_per_journal_year=1, year_range=(2000, 2000), mean_refs=2**62)


def test_config_validation():
    with pytest.raises(ConfigError, match="num_fields"):
        small_config(num_fields=1)
    with pytest.raises(ConfigError, match="distinct broad area"):
        SyntheticConfig(
            num_fields=15,
            journals_per_field=1,
            num_general_journals=0,
            articles_per_journal_year=1,
            year_range=(2000, 2001),
            mean_refs=1.0,
            p_intra=0.5,
            field_citation_rate=1.0,
            general_field_mix=(1.0 / 15,) * 15,
            seed=0,
        )
    with pytest.raises(ConfigError, match="year_range"):
        small_config(year_range=(2005, 2000))
    for bad in (2000, (2000.5, 2001), (2000, 2001, 2002), (True, 2001)):
        with pytest.raises(ConfigError, match="year_range"):
            small_config(year_range=bad)
    for name, bad in (
        ("journals_per_field", 2.5),
        ("num_general_journals", "1"),
        ("articles_per_journal_year", True),
    ):
        with pytest.raises(ConfigError, match=name):
            small_config(**{name: bad})
    with pytest.raises(ConfigError, match="p_intra"):
        small_config(p_intra=1.5)
    with pytest.raises(ConfigError, match="sum to 1"):
        small_config(general_field_mix=(0.9, 0.2))
    with pytest.raises(ConfigError, match="positive"):
        small_config(field_citation_rate=(1.0, 0.0))
    for bad in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ConfigError, match="cover every field"):
            small_config(field_citation_rate=bad)
    # numpy's Poisson sampler would raise on these, or on int(nan) in the quotas.
    for bad in (float("inf"), 1e30):
        with pytest.raises(ConfigError, match="mean_refs"):
            small_config(mean_refs=bad)
    for bad in (float("inf"), 1e19, (1.0, float("nan"))):
        with pytest.raises(ConfigError, match="field_citation_rate"):
            small_config(field_citation_rate=bad)
    with pytest.raises(ConfigError, match="general_field_mix"):
        small_config(general_field_mix=(float("nan"), 0.5))
    with pytest.raises(ConfigError, match="seed"):
        small_config(seed=-4)
    # Bools and non-numbers raise a ConfigError naming the knob, never a
    # TypeError or ValueError, and are never read as 0 or 1.
    for name, bad in (
        ("seed", True),
        ("mean_refs", "5"),
        ("mean_refs", True),
        ("p_intra", "x"),
        ("p_intra", True),
        ("p_intra", None),
        ("field_citation_rate", True),
        ("field_citation_rate", "ab"),
        ("field_citation_rate", None),
        ("field_citation_rate", (1.0, True)),
        ("field_citation_rate", {0: 1.0, 1: "x"}),
        ("general_field_mix", "abc"),
        ("general_field_mix", "ab"),
        ("general_field_mix", 0.5),
        ("general_field_mix", (True, False)),
    ):
        with pytest.raises(ConfigError, match=name):
            small_config(**{name: bad})
    # A huge int fails the range check, not a float conversion.
    with pytest.raises(ConfigError, match="field_citation_rate"):
        small_config(field_citation_rate=10**400)
    with pytest.raises(ConfigError, match="general_field_mix"):
        small_config(general_field_mix=(10**400, 0))
    with pytest.raises(ConfigError, match="missing fields"):
        small_config(field_citation_rate={0: 1.0})
