"""Field-resolved impact indicators on a synthetic corpus.

Plants three fields with different per-article citation rates, then shows
that the computed field baselines recover kappa * rate, that a general
journal's composition matches its configured mix, and how prestige,
representation, and rankings read on top of that. Every number is a slice
of one count cube, built in one pass over the corpus.

Usage: python3 demos/03_impact_indicators.py
"""

from refclass import (
    ALL_SOURCES,
    IndicatorConfig,
    SyntheticConfig,
    classify,
    count_cube,
    generate_synthetic,
    prestige,
)
from refclass.synthetic import field_category

rates = (2.0, 4.0, 8.0)
config = SyntheticConfig(
    num_fields=3,
    journals_per_field=4,
    num_general_journals=1,
    articles_per_journal_year=150,
    year_range=(2000, 2004),
    mean_refs=8.0,
    p_intra=0.8,
    field_citation_rate=rates,
    general_field_mix=(0.5, 0.3, 0.2),
    seed=4242,
)
corpus, truth, taxonomy = generate_synthetic(config)
assignments = classify(corpus, taxonomy).assignments
icfg = IndicatorConfig(if_year_range=(2002, 2004), pub_window=(2000, 2004))
areas = [taxonomy.broad_area_of(field_category(f)) for f in range(3)]
# The general journal and the four journals of the third field; the cube
# also answers for all sources.
journals = ("JG00", "JF02S00", "JF02S01", "JF02S02", "JF02S03")
cube = count_cube(corpus, assignments, journals, icfg)

# ---------------------------------------------------------------------------
# Field baselines: citations to all sources in one area, per publication in
# the trailing window. With a planted per-year citation rate lambda the
# analytic expectation is kappa * lambda.
# ---------------------------------------------------------------------------
print(f"{'area':14s} {'measured':>9s} {'kappa*rate':>11s}")
baselines = {}
for f, area in enumerate(areas):
    m = cube.mean_impact_factor(ALL_SOURCES, area)
    baselines[area] = m.value
    print(f"{area:14s} {m.value:9.3f} {icfg.kappa * rates[f]:11.3f}")
print()

# ---------------------------------------------------------------------------
# The general journal: disciplinary composition and representation.
# Composition follows the configured mix; representation compares each
# area's share inside the journal to its share of the whole corpus.
# ---------------------------------------------------------------------------
comp = cube.composition(("JG00",))
rep = cube.representation(("JG00",))
print(f"{'area':14s} {'share':>7s} {'mix':>6s} {'representation':>15s}")
for f, area in enumerate(areas):
    print(
        f"{area:14s} {comp.share(area):7.3f} {config.general_field_mix[f]:6.3f} "
        f"{rep.ratios[area]:15.3f}"
    )
print()

# ---------------------------------------------------------------------------
# Prestige: the general journal's field-restricted impact against the field
# baseline. Values near 1 mean its articles perform like the field average.
# ---------------------------------------------------------------------------
print(f"{'area':14s} {'journal IF':>11s} {'baseline':>9s} {'prestige':>9s}")
for area in areas:
    m = cube.mean_impact_factor("JG00", area)
    p = prestige(m.value, baselines[area], journal_id="JG00", area=area)
    print(f"{area:14s} {p.journal_if:11.3f} {p.baseline_if:9.3f} {p.value:9.3f}")
print()

# ---------------------------------------------------------------------------
# Ranking within one area: the general journal is scored by its
# area-restricted impact, disciplinary journals by their whole-journal one.
# ---------------------------------------------------------------------------
area = areas[2]
table = cube.ranking(taxonomy, area)
print(f"ranking in {area}:")
for e in table.entries:
    restricted = "field-restricted" if e.field_restricted else "whole-journal"
    value = f"{e.value:.3f}" if e.value is not None else "undefined"
    print(f"  {e.rank or '-'}  {e.journal_id:10s} {value:>9s}  ({restricted})")
