"""Application-profile vocabulary: the namespaces and terms shared by all modules.

Standard namespaces (Dublin Core, the W3C provenance ontology, the change
tracking extension) are reused where a suitable term exists; everything
catalog-specific lives under the ``cat:`` namespace.
"""

from .rdf import Iri, RDF_NS, XSD_NS

PROV_NS = "http://www.w3.org/ns/prov#"
OCO_NS = "https://w3id.org/oc/ontology/"
DCT_NS = "http://purl.org/dc/terms/"
CAT_NS = "https://w3id.org/hcat/vocab/"
AUDIT_NS = "https://w3id.org/hcat/audit/"

RDF_TYPE = Iri(RDF_NS + "type")

XSD_DATE = Iri(XSD_NS + "date")
XSD_DATETIME = Iri(XSD_NS + "dateTime")
XSD_INTEGER = Iri(XSD_NS + "integer")

# Snapshot chain terms.
PROV_ENTITY = Iri(PROV_NS + "Entity")
SPECIALIZATION_OF = Iri(PROV_NS + "specializationOf")
GENERATED_AT = Iri(PROV_NS + "generatedAtTime")
INVALIDATED_AT = Iri(PROV_NS + "invalidatedAtTime")
ATTRIBUTED_TO = Iri(PROV_NS + "wasAttributedTo")
PRIMARY_SOURCE = Iri(PROV_NS + "hasPrimarySource")
DERIVED_FROM = Iri(PROV_NS + "wasDerivedFrom")
HAS_UPDATE_QUERY = Iri(OCO_NS + "hasUpdateQuery")
CHANGE_KIND = Iri(CAT_NS + "changeKind")

# Descriptive metadata.
DCT_TITLE = Iri(DCT_NS + "title")
DCT_TYPE = Iri(DCT_NS + "type")
DCT_DESCRIPTION = Iri(DCT_NS + "description")
DCT_CREATOR = Iri(DCT_NS + "creator")
DCT_IDENTIFIER = Iri(DCT_NS + "identifier")
DCT_LICENSE = Iri(DCT_NS + "license")
DCT_RIGHTS_HOLDER = Iri(DCT_NS + "rightsHolder")
DCT_ACCESS_RIGHTS = Iri(DCT_NS + "accessRights")
DCT_CONFORMS_TO = Iri(DCT_NS + "conformsTo")
DCT_FORMAT = Iri(DCT_NS + "format")

# Catalog entity classes.
PHYSICAL_OBJECT = Iri(CAT_NS + "PhysicalObject")
DIGITAL_OBJECT = Iri(CAT_NS + "DigitalObject")
ASSET_VERSION = Iri(CAT_NS + "AssetVersion")
ACTIVITY = Iri(CAT_NS + "Activity")

# Catalog-specific properties.
COUNTERPART_OF = Iri(CAT_NS + "counterpartOf")
RECORD_LICENCE = Iri(CAT_NS + "recordLicence")
HOLDING_INSTITUTION = Iri(CAT_NS + "holdingInstitution")
PRODUCED_BY = Iri(CAT_NS + "producedBy")
ACCESS_URL = Iri(CAT_NS + "accessUrl")
STORAGE_LOCATION = Iri(CAT_NS + "storageLocation")
BACKUP_LOCATION = Iri(CAT_NS + "backupLocation")
REGISTERED_IN = Iri(CAT_NS + "registeredIn")
SAME_AS = Iri(CAT_NS + "sameAs")
INTERVAL_START = Iri(CAT_NS + "intervalStart")
INTERVAL_END = Iri(CAT_NS + "intervalEnd")

# Digitisation activity properties.
PHASE = Iri(CAT_NS + "phase")
CONCERNS = Iri(CAT_NS + "concerns")
UNIT = Iri(CAT_NS + "unit")
AGENT = Iri(CAT_NS + "agent")
TECHNIQUE = Iri(CAT_NS + "technique")
TOOL = Iri(CAT_NS + "tool")
START_DATE = Iri(CAT_NS + "startDate")
END_DATE = Iri(CAT_NS + "endDate")
INPUT = Iri(CAT_NS + "input")
OUTPUT = Iri(CAT_NS + "output")
SCENE_ID = Iri(CAT_NS + "sceneId")
UPLOAD_TARGET = Iri(CAT_NS + "uploadTarget")

# Asset version properties.
DERIVATIVE_OF = Iri(CAT_NS + "derivativeOf")
VERSION_KIND = Iri(CAT_NS + "versionKind")
FILE_FORMAT = Iri(CAT_NS + "format")
SIZE_BYTES = Iri(CAT_NS + "sizeBytes")
POLYGON_COUNT = Iri(CAT_NS + "polygonCount")
TEXTURE_WIDTH = Iri(CAT_NS + "textureWidth")
TEXTURE_HEIGHT = Iri(CAT_NS + "textureHeight")
CHECKSUM = Iri(CAT_NS + "checksum")

# Audit report terms.
AUDIT_CHECK = Iri(CAT_NS + "check")
AUDIT_SUBJECT = Iri(CAT_NS + "subject")
AUDIT_OUTCOME = Iri(CAT_NS + "outcome")
AUDIT_EVIDENCE = Iri(CAT_NS + "evidence")
