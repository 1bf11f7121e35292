"""Every tolerance and numeric floor of the package, each defined once.

This is the list of the tolerances at which isocomb's claims hold.  Each
value carries a one-line reason of one of two kinds: a claim bound, which
``tests/test_acceptance.py`` pins as a headline criterion, or a floor
derived from rounding, which keeps a comparison or a ratio far enough
above the float64 noise of what it guards that rounding cannot flip its
verdict.  No other module defines a tolerance or writes one inline.
"""

import sys

# -- claim bounds, pinned by tests/test_acceptance.py ----------------------------

VERTEX_ANGLE_TOL = 1e-9         # claim: |beta - (beta1 + beta2) / 2| at every vertex row
MIN_EXTERIOR_TOL = 1e-9         # claim: least exterior angle or turning of a combination
EXTERIOR_SUM_TOL = 1e-8         # claim: |sum of exterior angles - 2*pi| of a combined curve
GAUSS_BONNET_TOL = 1e-8         # claim: |sum of turnings + fan area - 2*pi| of a link;
                                # it reads <= ~1e-14 on links of up to 64k vertices
CERTIFICATE_TOL = 1e-9          # claim: min exterior and exterior sum of a certificate

# -- floors derived from rounding ------------------------------------------------

# solvers and vector algebra
BRENT_XTOL = 1e-15              # rounding: Brent's absolute step, full double precision
BRENT_RTOL = 8.9e-16            # rounding: Brent's relative step, just above scipy's floor of 4 eps
PARALLEL_EPS = 1e-15            # rounding: |a x b| of unit vectors below this is (anti)parallel
REVERSAL_EPS = 1e-12            # rounding: a turn within this of pi is a reversal

# arc-length queries, read by geometry.ArcPolygon.locate alone
SNAP_FACTOR = 32 * sys.float_info.epsilon  # rounding: (base + s) mod p is off by a few ulps

# polygon validation (planar and spherical)
LENGTH_EPS_FACTOR = 1e-12       # rounding: an edge below this times the perimeter is degenerate;
                                # read by geometry.short_edges alone
COLLINEAR_EPS = 1e-12           # rounding: a planar exterior angle or a geodesic turning at or below
                                # this is merged away; the default of both polygon builders
TOTAL_TURN_TOL = 1e-9           # rounding: |total turning - 2*pi| of a simple planar chain
UNIT_NORM_TOL = 1e-9            # rounding: |norm - 1| of a vertex accepted onto the sphere
ANTIPODAL_DOT_EPS = 1e-12       # rounding: a vertex dot product within this of -1 is antipodal, so
                                # is every edge within ~1.4e-6 = sqrt(2e-12) rad of pi
CENTROID_NORM_FLOOR = 1e-14     # rounding: a circulation below this times the perimeter has no direction
DILATION_TURN_FACTOR = 24 * sys.float_info.epsilon  # rounding: times |centre| + |vertex| bounds twice
                                # the move of a dilated turn over the shortest edge; at or above the
                                # least turn times that edge, the dilated chain is rebuilt

# random links
LINK_BRACKET_RTOL = 1e-7        # rounding: a hull contracts if longer than target by this share
LINK_SCALE_FLOOR = 1e-9         # rounding: lower end of the gnomonic scale bracket
LINK_LENGTH_TOL = 1e-10         # rounding: |perimeter - target| of a generated link

# pairing, alignment and combination
PERIMETER_RTOL = 1e-9           # rounding: relative perimeter difference of a pair of equal length
MARGIN_EPS = 1e-9               # rounding: an alignment margin at or below this is a failure
MARGIN_TIE_TOL = 1e-12          # rounding: margins this close tie; angles, so alike at any scale
BREAKPOINT_MERGE_RTOL = 1e-12   # rounding: the one arc-position merge, plane and cone; = LENGTH_EPS_FACTOR,
                                # so a polygon's own vertices merge only across an edge within rounding of it
RELATIVE_TAU_FLOOR = 1e-3       # rounding: a bending step below this share of a chord is parallel
BENDING_DENOM_FLOOR = 1e-300    # rounding: keeps the bending ratio of parallel segments from 0/0

# cones and digons
HEIGHT_EPS = 1e-6               # rounding: x0 floor of a transformed point and of a height sum
IMAGE_COLLINEAR_EPS = 1e-9      # rounding: sampling-noise turn merged away in transformed images
ANTIPODAL_EPS = 1e-9            # rounding: floor of |r1 + r2| in a cone combination
DIGON_DEPTH_FLOOR = 1e-6        # rounding: least cut depth tried for the second digon
DIGON_EDGE_FLOOR = 1e-11        # rounding: half the least edge tried, > LENGTH_EPS_FACTOR * 2*pi
DIGON_DEPTH_MARGIN = 1e-3       # rounding: the cut-depth bracket ends this far below pi/2
DIGON_PERIMETER_RTOL = 1e-12    # rounding: relative perimeter match of two truncated digons

# drawing
SVG_SPAN_FLOOR = 1e-9           # rounding: least bounding-box side, so a flat curve still scales
